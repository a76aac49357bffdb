"""Acceptance suite: the headline equalities at desk scale.

Each test prints one PASS line (visible with ``pytest -s`` or on failure)
and enforces the stated runtime budget where one exists. Randomness is
seeded, so reruns are bit-identical.
"""

from __future__ import annotations

import random
import time

from conftest import interlaced
from circuitnull.gf2 import nullity
from circuitnull.graphs import (
    check_euler_system,
    cyclic_word_key,
    euler_system,
    from_double_occurrence_words,
    random_regular_multigraph,
    reversed_component,
)
from circuitnull.interlace import (
    interlace_graph,
    interlacement_toggle_check,
    kappa_transform,
)
from circuitnull.partitions import (
    Transition,
    induced_assignment,
    partition_matrix,
    trace,
    transition_matchings,
    verify_extended_cle,
)
from circuitnull.permutations import (
    Permutation,
    compose_cycle_with_transpositions,
    orbit_count,
    orbit_count_via_nullity,
    verify_permutation_reduction,
)
from circuitnull.polynomials import (
    MultiPoly,
    courcelle,
    courcelle_from_partitions,
    q2_from_partitions,
    q_from_partitions,
    q_nullity,
    q_two_variable,
)

F, C, X = Transition.FOLLOW, Transition.CROSS, Transition.FLIP


def _report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s) {detail}")


def _random_word(rng: random.Random, n: int) -> list[str]:
    letters = [str(i + 1) for i in range(n)] * 2
    rng.shuffle(letters)
    return letters


def test_criterion_1_k5_fixture():
    start = time.perf_counter()
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    t = {"1": F, "2": X, "3": X, "4": C, "5": C}
    m = partition_matrix(es, t)
    assert m.labels == ("2", "3", "4", "5")
    assert m.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]
    assert nullity(m) == 0
    partition = trace(g, es, t)
    assert partition.size == 1
    assert cyclic_word_key(partition.word(0)) == cyclic_word_key(tuple("1254231534"))

    t["3"] = F
    m2 = partition_matrix(es, t)
    assert nullity(m2) == 1
    partition2 = trace(g, es, t)
    assert partition2.size == 2
    assert {cyclic_word_key(w) for w in partition2.words} == {
        cyclic_word_key(tuple("1254234")),
        cyclic_word_key(tuple("135")),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "K5 fixture: I_P, nullities, and both circuit sets exact")


def test_criterion_2_doubled_triangle_fixture():
    start = time.perf_counter()
    g, es = from_double_occurrence_words(["1 2 3 1 2 3"])
    # the parallel-pair partition: orientation-inconsistent at every vertex
    t = {v: X for v in g.vertices}
    m = partition_matrix(es, t)
    assert m.to_lists() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]
    assert nullity(m) == 2
    partition = trace(g, es, t)
    assert partition.size == 3
    assert {cyclic_word_key(w) for w in partition.words} == {
        cyclic_word_key(("1", "2")),
        cyclic_word_key(("2", "3")),
        cyclic_word_key(("3", "1")),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, elapsed, "doubled triangle: all-ones I_P, nullity 2, three parallel pairs")


def test_criterion_3_exhaustive_equality_sweep():
    start = time.perf_counter()
    rng = random.Random(3)
    graphs = 0
    assignments = 0
    while graphs < 200:
        n = rng.randint(1, 7)
        g = random_regular_multigraph(n, rng)
        report = verify_extended_cle(g, euler_system(g))
        assert report.ok, report.failures
        graphs += 1
        assignments += report.checked
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"{graphs} graphs, {assignments} assignments, zero failures")


def test_criterion_4_partition_polynomials_match_nullity_sums():
    start = time.perf_counter()
    rng = random.Random(4)
    systems = 0
    comparisons = 0
    while systems < 50:
        n = rng.randint(1, 7)
        g = random_regular_multigraph(n, rng)
        es = euler_system(g)
        vertices = g.vertices
        for mask in range(1 << len(vertices)):
            loops = {vertices[i] for i in range(len(vertices)) if (mask >> i) & 1}
            h = interlace_graph(es, loops)
            assert q_from_partitions(g, es, loops) == q_nullity(h)
            assert q2_from_partitions(g, es, loops) == q_two_variable(h)
            comparisons += 2
        systems += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(4, elapsed, f"{systems} systems, {comparisons} coefficient-exact comparisons")


def test_criterion_5_courcelle_identities():
    start = time.perf_counter()
    rng = random.Random(5)
    x_minus_1 = MultiPoly.make(("x",), {(1,): 1, (0,): -1})
    y_minus_1 = MultiPoly.make(("y",), {(1,): 1, (0,): -1})
    checked = 0
    for _ in range(20):
        n = rng.randint(1, 6)
        g, es = from_double_occurrence_words([_random_word(rng, n)])
        for _ in range(10):
            loops = {v for v in g.vertices if rng.random() < 0.5}
            h = interlace_graph(es, loops)
            direct = courcelle(h)
            assert courcelle_from_partitions(g, es, loops) == direct
            bindings = {"u": x_minus_1, "v": y_minus_1}
            bindings.update({f"x_{v}": 1 for v in h.vertices})
            bindings.update({f"y_{v}": 0 for v in h.vertices})
            q2 = q_two_variable(h)
            assert direct.substitute(bindings) == q2
            assert q2.substitute({"x": 2}) == q_nullity(h)
            checked += 1
    elapsed = time.perf_counter() - start
    _report(5, elapsed, f"{checked} loop sets: definition, partition route, and chain agree")


def test_criterion_6_cohn_lempel_orbit_counts():
    start = time.perf_counter()
    rng = random.Random(6)
    for _ in range(500):
        m = rng.randint(1, 16)
        elements = list(range(1, m + 1))
        rng.shuffle(elements)
        k = rng.randint(0, m // 2)
        transpositions = [(elements[2 * i], elements[2 * i + 1]) for i in range(k)]
        predicted = orbit_count_via_nullity(m, transpositions)
        actual = orbit_count(compose_cycle_with_transpositions(m, transpositions))
        assert predicted == actual
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(6, elapsed, "500 transposition sets, zero failures")


def test_criterion_7_permutation_reduction():
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 12)
        image = list(range(1, m + 1))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        report = verify_permutation_reduction(p)
        assert report.ok
        assert report.orbits == orbit_count(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, elapsed, "200 permutations (odd sizes extended), zero failures")


def test_criterion_8_kappa_properties():
    start = time.perf_counter()
    rng = random.Random(8)
    words = 0
    while words < 100:
        n = rng.randint(1, 7)
        g, es = from_double_occurrence_words([_random_word(rng, n)])
        a = rng.choice(g.vertices)
        assert interlacement_toggle_check(es, a).ok
        transformed = kappa_transform(es, a)
        assert transformed.graph == es.graph  # same multigraph, same edge set
        check_euler_system(transformed)

        t = {v: rng.choice((F, C, X)) for v in g.vertices}
        t[a] = X
        t2 = induced_assignment(transformed, transition_matchings(es, t))
        assert nullity(partition_matrix(es, t)) == nullity(partition_matrix(transformed, t2))
        assert trace(g, es, t) == trace(g, transformed, t2)

        partners = [v for v in g.vertices if v != a and interlaced(es, v, a)]
        if partners:
            b = rng.choice(partners)
            tc = {v: rng.choice((F, C, X)) for v in g.vertices}
            tc[a] = C
            tc[b] = C
            double = kappa_transform(kappa_transform(kappa_transform(es, a), b), a)
            tc2 = induced_assignment(double, transition_matchings(es, tc))
            assert tc2[a] == F and tc2[b] == F
            assert nullity(partition_matrix(es, tc)) == nullity(
                partition_matrix(double, tc2)
            )
            assert trace(g, es, tc) == trace(g, double, tc2)
        words += 1
    elapsed = time.perf_counter() - start
    _report(8, elapsed, f"{words} words: toggle law, validity, nullity preservation")


def test_criterion_9_euler_system_independence():
    # the loop-free generating function is an invariant of the induced
    # orientation: reversals, same-orientation alternatives, and the
    # segment-permuting double transforms must all leave it fixed
    from conftest import random_directed_euler_system
    from circuitnull.graphs import orient

    start = time.perf_counter()
    rng = random.Random(9)
    graphs = 0
    variants = 0
    while graphs < 20:
        n = rng.randint(1, 6)
        g = random_regular_multigraph(n, rng)
        es = euler_system(g)
        base = q_from_partitions(g, es)
        for i in range(len(es.circuits)):
            assert q_from_partitions(g, reversed_component(es, i)) == base
            variants += 1
        for _ in range(3):
            alt = random_directed_euler_system(g, orient(es), rng)
            check_euler_system(alt)
            assert q_from_partitions(g, alt) == base
            rev = alt
            for i in range(len(rev.circuits)):
                rev = reversed_component(rev, i)
            assert q_from_partitions(g, rev) == base
            variants += 2
        pairs = [
            (a, b)
            for i, a in enumerate(g.vertices)
            for b in g.vertices[i + 1:]
            if interlaced(es, a, b)
        ]
        if pairs:
            a, b = rng.choice(pairs)
            double = kappa_transform(kappa_transform(kappa_transform(es, a), b), a)
            assert q_from_partitions(g, double) == base
            variants += 1
        graphs += 1
    elapsed = time.perf_counter() - start
    _report(
        9,
        elapsed,
        f"{graphs} graphs, {variants} alternative systems: polynomial unchanged",
    )
