"""Orbit counting: interleaving matrices, composition, and the digraph reduction."""

from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circuitnull import permutations
from circuitnull.errors import CapExceededError, InputFormatError
from circuitnull.gf2 import nullity
from circuitnull.graphs import directed_euler_system, from_edge_list
from circuitnull.partitions import (
    Transition,
    format_assignment,
    induced_assignment,
    predicted_size,
    trace,
)
from circuitnull.permutations import (
    Permutation,
    ReductionReport,
    cohn_lempel_matrix,
    compose_cycle_with_transpositions,
    even_extension,
    orbit_count,
    orbit_count_via_nullity,
    parse_permutation,
    permutation_to_digraph,
    sigma_transposition_factorization,
    verify_permutation_reduction,
)


def identity_permutation(m):
    return Permutation(tuple(range(1, m + 1)))


@st.composite
def permutations_(draw, max_size: int = 12):
    m = draw(st.integers(1, max_size))
    return Permutation(tuple(draw(st.permutations(list(range(1, m + 1))))))


@st.composite
def transposition_instances(draw, max_size: int = 16):
    m = draw(st.integers(1, max_size))
    elements = draw(st.permutations(list(range(1, m + 1))))
    k = draw(st.integers(0, m // 2))
    return m, [(elements[2 * i], elements[2 * i + 1]) for i in range(k)]


def test_orbit_count_basics():
    assert orbit_count(identity_permutation(5)) == 5
    assert orbit_count(parse_permutation("2 3 4 5 1")) == 1
    assert orbit_count(parse_permutation("4 3 2 1")) == 2  # (1 4)(2 3)


def test_parse_permutation_formats():
    assert parse_permutation("3 1 2 5 4").image == (3, 1, 2, 5, 4)
    p = parse_permutation("(1 3 2)(4 5)")
    assert p.image == (3, 1, 2, 5, 4)
    assert parse_permutation("(2 3)", size=4).image == (1, 3, 2, 4)
    with pytest.raises(InputFormatError):
        parse_permutation("1 1 2")
    with pytest.raises(InputFormatError):
        parse_permutation("(1 2)(2 3)")
    with pytest.raises(InputFormatError):
        parse_permutation("(1 2) junk")
    with pytest.raises(InputFormatError):
        parse_permutation("0 1")


def test_parse_permutation_size_limit(monkeypatch):
    # The limit counts the largest element in cycle notation and the entries in one-line form.
    assert permutations.MAX_ELEMENTS == 1_000_000
    monkeypatch.setattr(permutations, "MAX_ELEMENTS", 4)
    assert parse_permutation("(1 4)").size == parse_permutation("4 3 2 1").size == 4
    refused = "permutation of 5 elements is above the limit of 4"
    for text, size in [("(1 5)", None), ("(1 2)", 5), ("5 4 3 2 1", None), ("1 2 3 4 9", None)]:
        with pytest.raises(InputFormatError, match=f"^{refused}$"):
            parse_permutation(text, size=size)


@pytest.mark.parametrize(
    "text, size, message",
    [
        ("(1 3)", 2, "size 2 is smaller than largest element 3"),
        ("()", 0, "empty cycle notation needs an explicit size"),
        ("2 1 3", 2, "one-line form has 3 entries, expected 2"),
        ("2 1 3", 4, "one-line form has 3 entries, expected 4"),
    ],
)
def test_parse_permutation_refuses_a_size_that_does_not_fit(text, size, message):
    with pytest.raises(InputFormatError, match=f"^{re.escape(message)}$"):
        parse_permutation(text, size=size)


def test_cycle_notation_parses_in_one_pass():
    # 100,000 transpositions: a parse that copied the rest of the text once per cycle took
    # 12 s on a 2-vCPU Xeon. The errors still come in order: a bad element, then unparsed text.
    m = 200_000
    text = "".join(f"({i} {i + 1})" for i in range(1, m, 2))
    start = time.perf_counter()
    p = parse_permutation(text)
    assert time.perf_counter() - start < 2
    assert p.size == m and p.image[:4] == (2, 1, 4, 3) and orbit_count(p) == m // 2
    with pytest.raises(InputFormatError, match="^bad element 'x'$"):
        parse_permutation(text + "(1 x) junk")
    with pytest.raises(InputFormatError, match="^unparsed text 'junk' in cycle notation$"):
        parse_permutation(text + " junk")


def test_cohn_lempel_matrix_fixtures():
    assert cohn_lempel_matrix(4, []).n == 0
    assert cohn_lempel_matrix(5, [(1, 3)]).to_lists() == [[0]]
    assert cohn_lempel_matrix(4, [(1, 3), (2, 4)]).to_lists() == [[0, 1], [1, 0]]
    assert cohn_lempel_matrix(6, [(1, 2), (3, 4)]).to_lists() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError, match="disjoint"):
        cohn_lempel_matrix(6, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="leaves"):
        cohn_lempel_matrix(4, [(1, 5)])


def test_composition_convention_matches_worked_examples():
    p = compose_cycle_with_transpositions(4, [(2, 4)])
    assert orbit_count(p) == 2 and p.orbits() == [(1, 4), (2, 3)]
    assert orbit_count_via_nullity(4, [(2, 4)]) == 2
    p2 = compose_cycle_with_transpositions(4, [(1, 3), (2, 4)])
    assert orbit_count(p2) == 1
    assert orbit_count_via_nullity(4, [(1, 3), (2, 4)]) == 1
    assert orbit_count_via_nullity(7, []) == 1


@given(transposition_instances())
def test_orbit_identity_against_oracle(instance):
    m, transpositions = instance
    composed = compose_cycle_with_transpositions(m, transpositions)
    assert orbit_count_via_nullity(m, transpositions) == orbit_count(composed)


def test_factorization():
    assert sigma_transposition_factorization(parse_permutation("1 2 3")) is None
    assert sigma_transposition_factorization(parse_permutation("2 3 4 1")) == []
    assert sigma_transposition_factorization(parse_permutation("4 3 2 1")) == [(2, 4)]
    # need not exist even for non-identity inputs: the inverse full cycle
    assert sigma_transposition_factorization(parse_permutation("3 1 2")) is None


@given(transposition_instances(max_size=12))
def test_factorization_round_trip(instance):
    m, transpositions = instance
    composed = compose_cycle_with_transpositions(m, transpositions)
    recovered = sigma_transposition_factorization(composed)
    assert recovered is not None
    assert sorted(recovered) == sorted(tuple(sorted(t)) for t in transpositions)


def test_even_extension():
    p = parse_permutation("(1 2 3)")
    q = even_extension(p)
    assert q.size == 4 and q.image == (2, 3, 4, 1)
    assert orbit_count(q) == orbit_count(p)
    assert even_extension(q) is q


@given(permutations_(max_size=9))
def test_even_extension_preserves_orbits(p):
    assert orbit_count(even_extension(p)) == orbit_count(p)


def test_pair_digraph_shapes():
    full = parse_permutation("2 3 4 1")
    pd = permutation_to_digraph(full)
    assert len(pd.graph.vertices) == 2 and pd.graph.num_edges == 4
    assert verify_permutation_reduction(full).traced == 1
    ident = identity_permutation(4)
    pd2 = permutation_to_digraph(ident)
    assert all(u == v for u, v in pd2.graph.edges())  # every edge a loop
    rep = verify_permutation_reduction(ident)
    assert rep.traced == 4 and rep.orbits == 4 and rep.ok


def digraph_by_labels(p, pairing=None):
    """The pair digraph's graph built from string labels through from_edge_list."""
    p = even_extension(p)
    pairs = pairing or [(i, i + 1) for i in range(1, p.size, 2)]
    pair_of = {x: idx for idx, pair in enumerate(pairs) for x in pair}
    return from_edge_list(
        (str(pair_of[i] + 1), str(pair_of[p(i)] + 1)) for i in range(1, p.size + 1)
    )


@given(permutations_(max_size=21), st.randoms(use_true_random=False))
def test_pair_digraph_graph_matches_the_edge_list_build(p, rng):
    elements = list(range(1, even_extension(p).size + 1))
    rng.shuffle(elements)
    pairing = list(zip(elements[::2], elements[1::2]))
    for pairs in (None, pairing):
        built, expected = permutation_to_digraph(p, pairs).graph, digraph_by_labels(p, pairs)
        assert built == expected and built.edges() == expected.edges()


def test_reduction_fixtures():
    rep = verify_permutation_reduction(identity_permutation(6))
    assert rep.ok and rep.orbits == 6 == rep.predicted
    odd = parse_permutation("(1 2 3)")
    rep2 = verify_permutation_reduction(odd)
    assert rep2.ok and rep2.size == 3 and rep2.extended_size == 4
    assert rep2.orbits == orbit_count(odd)
    data = rep2.to_json_dict()
    assert data["ok"] is True and data["predicted"] == data["traced"]
    assert data == {
        "size": 3,
        "extended_size": 4,
        "orbits": 1,
        "nullity": 0,
        "components": 1,
        "predicted": 1,
        "traced": 1,
        "assignment": "1:F 2:F",
        "ok": True,
    }


@given(permutations_())
def test_reduction_always_agrees(p):
    rep = verify_permutation_reduction(p)
    assert rep.ok
    assert rep.orbits == orbit_count(p)


@given(st.integers(1, 40), st.booleans(), st.randoms(use_true_random=False))
def test_reduction_report_equals_the_public_functions(m, shuffled, rng):
    # Every field of the report must be what the public functions give on the induced
    # assignment, each with its own checks, under the default and a shuffled pairing.
    image = list(range(1, m + 1))
    rng.shuffle(image)
    p = Permutation(tuple(image))
    extended = even_extension(p)
    pairing = None
    if shuffled:
        elements = list(range(1, extended.size + 1))
        rng.shuffle(elements)
        pairing = [(elements[i], elements[i + 1]) for i in range(0, extended.size, 2)]
    pd = permutation_to_digraph(p, pairing)
    es = directed_euler_system(pd.graph, pd.is_out)
    t = induced_assignment(es, pd.transition)
    c = len(es.circuits)
    assert verify_permutation_reduction(p, pairing) == ReductionReport(
        size=m,
        extended_size=extended.size,
        orbits=orbit_count(p),
        nullity=predicted_size(es, t) - c,
        components=c,
        traced=trace(pd.graph, es, t).size,
        assignment=format_assignment(t, pd.graph.vertices),
    )


def test_reduction_pairing_independence():
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(1, 10)
        image = list(range(1, m + 1))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        expected = orbit_count(p)
        size = even_extension(p).size
        elements = list(range(1, size + 1))
        rng.shuffle(elements)
        pairing = [
            (elements[2 * i], elements[2 * i + 1]) for i in range(size // 2)
        ]
        rep = verify_permutation_reduction(p, pairing=pairing)
        assert rep.ok and rep.orbits == expected


def test_reduction_cap_and_pairing_validation():
    with pytest.raises(CapExceededError):
        verify_permutation_reduction(identity_permutation(10), cap=8)
    m = permutations.DEFAULT_ORBIT_CAP + 1
    with pytest.raises(CapExceededError, match=f"^permutation size {m} exceeds the orbit cap"):
        verify_permutation_reduction(identity_permutation(m))
    with pytest.raises(ValueError, match="partition"):
        permutation_to_digraph(identity_permutation(4), pairing=[(1, 2), (2, 3)])


def test_nullity_route_refuses_above_the_orbit_cap():
    # The matrix is k x k in the k transpositions, so the cap is checked before it is built.
    m = permutations.DEFAULT_ORBIT_CAP + 1
    pairs = [(i, i + 1) for i in range(1, m, 2)]
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match=f"^permutation size {m} exceeds the orbit cap"):
        orbit_count_via_nullity(m, pairs)
    assert time.perf_counter() - start < 0.1
    assert orbit_count_via_nullity(4, [(2, 4)], cap=4) == 2
    with pytest.raises(CapExceededError):
        orbit_count_via_nullity(4, [(2, 4)], cap=3)


def test_matrix_side_agrees_with_reduction():
    # the two matrix routes must agree with one another via the oracle
    for text in ("4 3 2 1", "2 3 4 1", "2 1 4 3"):
        p = parse_permutation(text)
        factors = sigma_transposition_factorization(p)
        assert factors is not None
        assert 1 + nullity(cohn_lempel_matrix(p.size, factors)) == orbit_count(p)
        assert verify_permutation_reduction(p).orbits == orbit_count(p)


@given(transposition_instances())
def test_cohn_lempel_matrix_is_the_interval_interleaving_predicate(instance):
    m, transpositions = instance
    pairs = [tuple(sorted(t)) for t in transpositions]
    expected = [
        [int(a < c < b < d or c < a < d < b) for c, d in pairs] for a, b in pairs
    ]
    assert cohn_lempel_matrix(m, transpositions).to_lists() == expected


def test_a_transposition_of_one_element_is_refused():
    with pytest.raises(ValueError, match=r"^\(2 2\) is not a transposition$"):
        compose_cycle_with_transpositions(4, [(2, 2)])


def test_a_flip_in_the_pair_digraph_partition_is_an_internal_error(monkeypatch):
    # The pair digraph's transitions keep its orientation, so none is Flip; a fault that made
    # one so is reported, not counted.
    def all_flips(es, matchings):
        return dict.fromkeys(es.graph.vertices, Transition.FLIP)

    monkeypatch.setattr(permutations, "induced_assignment", all_flips)
    message = "internal error: permutation partition is orientation-inconsistent"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        verify_permutation_reduction(Permutation((2, 3, 1)))
