"""The shared-prefix sweep engines against the direct per-state computation."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import random
import re
import types
from array import array
from collections import Counter
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import plane_medial_system, seeded_looped_system
import circuitnull.partitions as partitions
import circuitnull.sweep as sweep
from circuitnull.cli import main
from circuitnull.errors import CapExceededError
from circuitnull.gf2 import bit_rank, bit_submatrix
from circuitnull.graphs import (
    _cuts,
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
)
from circuitnull.interlace import LoopedGraph, interlace_graph, looped_graph
from circuitnull.partitions import (
    SUBSET_SWEEP_LIMIT,
    Transition,
    _walk_circuits,
    transition_matchings,
    verify_extended_cle,
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
from circuitnull.sweep import circuit_counts, circuit_histogram, nullities, nullity_histogram

F, C, X = Transition.FOLLOW, Transition.CROSS, Transition.FLIP
K5_WORD = "1 2 3 4 5 1 3 5 2 4"


@st.composite
def looped_systems(draw, max_vertices: int = 7):
    """Configuration-model system with 0..max_vertices vertices and a loop set."""
    n = draw(st.integers(0, max_vertices))
    slots = draw(st.permutations(list(range(4 * n))))
    pairs = [(str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1)) for i in range(0, 4 * n, 2)]
    g = from_edge_list(pairs)
    loops = draw(st.frozensets(st.sampled_from(g.vertices))) if n else frozenset()
    return g, euler_system(g), loops


@st.composite
def split_systems(draw, max_vertices: int = 9):
    """Like ``looped_systems``, with vertices 1..k and k+1..n paired apart for a drawn k."""
    n = draw(st.integers(0, max_vertices))
    k = draw(st.integers(0, n))
    slots = draw(st.permutations(range(4 * k))) + draw(st.permutations(range(4 * k, 4 * n)))
    pairs = [(str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1)) for i in range(0, 4 * n, 2)]
    g = from_edge_list(pairs)
    loops = draw(st.frozensets(st.sampled_from(g.vertices))) if n else frozenset()
    return g, euler_system(g), loops


def _direct_nullity(rows, state):
    kept = [i for i, letter in enumerate(state) if letter]
    sub = bit_submatrix(rows, kept)
    for pos, i in enumerate(kept):
        if state[i] == 2:
            sub[pos] ^= 1 << pos
    return len(kept) - bit_rank(sub)


def _direct_count(g, es, loops, state):
    # Letter 1 is the passage consistent with the loop (Flip on a looped
    # vertex, Cross otherwise); letter 2 is the other one.
    letters = {False: (F, C, X), True: (F, X, C)}
    t = {v: letters[v in loops][s] for v, s in zip(g.vertices, state)}
    return len(_walk_circuits(g.mate, transition_matchings(es, t)))


def _row_options(rows, k):
    return [(1 << i, row, row ^ 1 << i)[:k] for i, row in enumerate(rows)]


def _pairing_options(g, es, loops, k):
    """Per vertex: Follow, the passage consistent with its loop, then the other."""
    options = []
    for label, (follow, cross, flip) in zip(g.vertices, es._pairings):
        if label in loops:
            cross, flip = flip, cross
        options.append((follow, cross, flip)[:k])
    return options


@given(looped_systems(), st.sampled_from((2, 3)))
def test_engines_match_direct_computation_state_by_state(system, k):
    g, es, loops = system
    n = len(g.vertices)
    rows = interlace_graph(es, loops).matrix.rows
    row_options = _row_options(rows, k)
    pairing_options = _pairing_options(g, es, loops, k)

    cuts = _cuts(g.mate, g.halves)
    nus = list(nullities(row_options))
    counts = list(circuit_counts(g.mate, pairing_options, 0, cuts))
    assert list(circuit_counts(g.mate, pairing_options, -len(es.circuits), cuts)) == nus
    states = list(itertools.product(range(k), repeat=n))
    assert len(nus) == len(counts) == len(states) == k**n
    for state, nu, count in zip(states, nus, counts):
        assert nu == _direct_nullity(rows, state)
        assert count == _direct_count(g, es, loops, state)
        assert count == nu + len(es.circuits)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nullities_match_direct_on_every_looped_graph_up_to_four_vertices(n):
    # Up to three vertices the prefix is empty, so each leaf kernel comes straight from
    # the leaf's rows e_j, A_j; four vertices add one prefix row in front of them.
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for mask in range(1 << len(cells)):
        rows = [0] * n
        for bit, (i, j) in enumerate(cells):
            if mask >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        for k in (2, 3):
            states = list(itertools.product(range(k), repeat=n))
            nus = list(nullities(_row_options(rows, k)))
            assert nus == [_direct_nullity(rows, state) for state in states], (rows, k)


@st.composite
def dependent_tails(draw, max_vertices: int = 12):
    """Looped-graph rows in which the rows e_j, A_j of three of the last nine vertices are dependent.

    The engine tags the rows of the vertices below its walk: the three-vertex leaf, or up
    to nine with memoized levels above the leaf. For distinct u, w, z among the last nine:
    A_u == e_w (u's only neighbour is w), A_u == e_w + e_z (u's only neighbours are w and
    z), A_u == A_w (a looped adjacent or an unlooped non-adjacent pair with the same other
    neighbours), or A_u + A_w + A_z == 0. So some sum of tagged rows is zero, and the kernel
    is non-empty before any prefix row, whichever vertices the walk leaves below it.
    """
    n = draw(st.integers(2, max_vertices))
    u, w, *z = draw(st.permutations(range(max(0, n - 9), n)))[:3]
    bit = {(i, j): draw(st.booleans()) for i in range(n) for j in range(i, n)}

    def get(i, j):
        return bit[min(i, j), max(i, j)]

    def put(i, j, on):
        bit[min(i, j), max(i, j)] = on

    cases = ["A_u == e_w", "looped pair", "unlooped pair"]
    if z:
        cases += ["A_u == e_w + e_z", "A_u + A_w + A_z == 0"]
    case = draw(st.sampled_from(cases))
    if case.startswith("A_u == e_w"):
        neighbours = {w, *z} if case.endswith("e_z") else {w}
        for i in range(n):
            put(i, u, i in neighbours)
    elif case.endswith("pair"):
        for i in set(range(n)) - {u, w}:
            put(i, w, get(i, u))
        for i, j in (u, u), (w, w), (u, w):
            put(i, j, case == "looped pair")
    else:
        (z,) = z
        for i in set(range(n)) - {u, w, z}:
            put(i, z, get(i, u) ^ get(i, w))
        a, b, c = get(u, w), get(u, z), get(w, z)
        put(u, u, a ^ b)
        put(w, w, a ^ c)
        put(z, z, b ^ c)
    rows = [0] * n
    for (i, j), on in bit.items():
        if on:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def _state(index, sizes):
    """The state at ``index`` in product order over vertices with ``sizes`` letters each."""
    state = []
    for size in reversed(sizes):
        index, letter = divmod(index, size)
        state.append(letter)
    return tuple(reversed(state))


@given(dependent_tails(), st.sampled_from((2, 3)), st.randoms(use_true_random=False))
def test_nullities_match_direct_when_the_last_rows_are_dependent(rows, k, rng):
    # Up to 3^8 states every state is checked; above that (memoized levels from n = 10 with
    # three letters) a sample of 1,000.
    n = len(rows)
    tail_rows = [row for j in range(max(0, n - 9), n) for row in (1 << j, rows[j])]
    assert bit_rank(tail_rows) < len(tail_rows)
    nus = nullities(_row_options(rows, k))
    assert len(nus) == k**n
    indices = range(k**n) if k**n <= 3**8 else rng.sample(range(k**n), 1000)
    for index in indices:
        assert nus[index] == _direct_nullity(rows, _state(index, [k] * n)), index


@given(looped_systems(max_vertices=6), st.data())
def test_engines_give_one_signed_byte_per_state_in_product_order(system, data):
    # Each vertex gets its own number of letters, 1 to 3, so product order is pinned
    # for mixed option counts too.
    g, es, loops = system
    n = len(g.vertices)
    letters = [data.draw(st.integers(1, 3)) for _ in range(n)]
    rows = interlace_graph(es, loops).matrix.rows
    row_options = [options[:k] for options, k in zip(_row_options(rows, 3), letters)]
    pairing_options = [p[:k] for p, k in zip(_pairing_options(g, es, loops, 3), letters)]
    nus = nullities(row_options)
    counts = circuit_counts(g.mate, pairing_options, -len(es.circuits), _cuts(g.mate, g.halves))
    states = list(itertools.product(*[range(k) for k in letters]))
    for values in (nus, counts):
        assert len(values) == math.prod(len(o) for o in row_options) == len(states)
        assert memoryview(values).format == "b"  # one signed byte per state
    assert list(nus) == [_direct_nullity(rows, state) for state in states]
    assert list(counts) == list(nus)


def test_leaf_memos_are_reused_and_stay_exact():
    # Vertex 1, above the memoized last seven vertices, and vertex 7, among them, each carry
    # a loop edge. At such a vertex the two pairings that split the loop leave the same open
    # strands and the same curve count, and the third leaves them too with one more curve.
    # So all three pairings at vertex 1 reach one memo key for vertices 3 to 9, and all
    # three at vertex 7 one key for vertices 8 and 9: both levels are hit by states whose
    # counts differ, which come out right only if the memo's values count curves from the
    # subtree's root and are shifted into place.
    rng = random.Random(8)
    cycles = [(1, 2, 3, 4, 5, 6, 7, 8, 9), (2, 4, 6, 8, 3, 5, 9)]
    edges = [(1, 1), (7, 7)] + [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    g = from_edge_list([(str(a), str(b)) for a, b in edges])
    es = euler_system(g)
    assert g.vertices[6] == "7"
    loops = frozenset(rng.sample(g.vertices, 4))
    rows = interlace_graph(es, loops).matrix.rows
    nus = list(nullities(_row_options(rows, 3)))
    options = _pairing_options(g, es, loops, 3)
    counts = list(circuit_counts(g.mate, options, -len(es.circuits), _cuts(g.mate, g.halves)))
    assert nus == counts
    states = list(itertools.product(range(3), repeat=9))
    assert len(nus) == len(states) == 3**9
    for index in rng.sample(range(3**9), 300):
        assert nus[index] == _direct_nullity(rows, states[index])
        assert counts[index] + len(es.circuits) == _direct_count(g, es, loops, states[index])
    for place in (3**8, 3**2):  # vertex 1's letter, then vertex 7's: letter 1 adds one curve
        for index in range(3**9):
            if index // place % 3 == 0:
                assert [counts[index + d * place] - counts[index] for d in range(3)] == [0, 1, 0]


@given(st.integers(10, 12), st.randoms(use_true_random=False))
def test_nullities_match_direct_with_mixed_letters_below_the_walk(n, rng):
    # Each vertex keeps 1 to 3 of its rows, so the walk stops after a varying number of
    # vertices and the memoized levels below it hold vertices of mixed option counts. Some
    # rows repeat another row or a unit row, so tag sums enter the kernel at every level.
    rows, density = [0] * n, rng.choice((0.2, 0.5))
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if rng.random() < density:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    for _ in range(rng.randint(0, 3)):
        u, w = rng.sample(range(n), 2)
        rows[u] = rows[w] if rng.random() < 0.5 else 1 << w
    options = [opts[: rng.choice((1, 2, 3, 3))] for opts in _row_options(rows, 3)]
    sizes = [len(opts) for opts in options]
    nus = nullities(options)
    assert len(nus) == math.prod(sizes)
    for index in rng.sample(range(len(nus)), min(len(nus), 500)):
        state = _state(index, sizes)
        assert nus[index] == _direct_nullity(rows, state), state


def test_memoized_subtrees_depend_on_the_kernel_and_the_vertices_left():
    # The kernel (1,) holds the first tag of the last vertex: its first row is dependent in
    # every state that picks it, however many vertices lie above. One memo serves every
    # level, so its keys must tell the levels apart.
    memo = {}
    for size in (7, 6, 5, 4, 3, 2, 1):
        values = sweep._subtree(memo, 0, (1,), (3,) * size)
        assert list(values) == [1, 0, 0] * 3 ** (size - 1)
        assert list(sweep._subtree(memo, 2, (1,), (3,) * size)) == [3, 2, 2] * 3 ** (size - 1)


def test_matrix_memo_levels_are_reused_across_prefix_ranks_and_stay_exact(monkeypatch):
    # Eleven vertices with three letters make 3^11 states, more than 3^9, so the walk covers
    # vertices 0-1 and vertices 2-10 are memoized, 8-10 in the leaf table. Vertices 1 and 5 are
    # isolated: Cross gives a zero row, dependent, and Follow and Flip the row e_i, which
    # touches no other row. So the three options at vertex 1 reach one key at the top of the
    # memo (nine vertices) with prefix ranks that differ, and the three at vertex 5 one key at
    # vertex 6 (five vertices). Both come out right only if a memoized subtree counts
    # dependent rows from its root and is shifted into place.
    rng = random.Random(11)
    n = 11
    rows = [0] * n
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if {i, j}.isdisjoint({1, 5}) and rng.random() < 0.4:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    offsets = {}
    real = sweep._subtree

    def spy(memo, offset, kernel, shape):
        offsets.setdefault((len(shape), kernel), set()).add(offset)
        return real(memo, offset, kernel, shape)

    monkeypatch.setattr(sweep, "_subtree", spy)
    nus = nullities(_row_options(rows, 3))
    assert len(nus) == 3**n
    shifted = {vertices for (vertices, _), seen in offsets.items() if len(seen) > 1}
    assert {9, 5} <= shifted and max(vertices for vertices, _ in offsets) == 9
    for index in rng.sample(range(3**n), 300):
        assert nus[index] == _direct_nullity(rows, _state(index, [3] * n)), index


@pytest.mark.parametrize(
    "letters, top",
    [
        ([3] * 9, 3),
        ([2] * 14, 3),
        ([3] * 10, 9),
        ([2] * 15, 9),
        ([3] * 7 + [2] * 3 + [1] * 2, 3),  # 17,496 states
        ([1] * 2 + [3] * 8 + [2] * 2, 9),  # 26,244 states
    ],
)
def test_matrix_memo_depth_follows_the_state_count_alone(letters, top, monkeypatch):
    # A sweep of more than 3^9 states memoizes its last nine vertices; any other walks down
    # to the three-vertex leaf, whatever its vertex count or its mix of letters.
    rng = random.Random(len(letters))
    rows = [rng.getrandbits(len(letters)) for _ in letters]
    shapes = []
    real = sweep._subtree

    def spy(memo, offset, kernel, shape):
        shapes.append(len(shape))
        return real(memo, offset, kernel, shape)

    monkeypatch.setattr(sweep, "_subtree", spy)
    options = [opts[:k] for opts, k in zip(_row_options(rows, 3), letters)]
    assert len(nullities(options)) == math.prod(letters)
    assert max(shapes) == top


def test_nullities_raise_only_when_a_nullity_leaves_the_signed_byte():
    # Zero rows are all dependent. Behind four three-letter vertices (e_i, 0, e_i) a sweep has
    # 81 states and walks down to the three-vertex leaf. Ten such vertices after the zero rows
    # make 3^10 states, and the last nine are memoized. So both the leaf and a memoized level
    # shift their values by a prefix count near the byte's limit.
    assert list(nullities([(0,)] * 127)) == [127]
    with pytest.raises(OverflowError):
        nullities([(0,)] * 128)
    front = [(1 << i, 0, 1 << i) for i in range(4)]
    nus = nullities(front + [(0,)] * 123)
    assert list(nus) == [123 + state.count(1) for state in itertools.product(range(3), repeat=4)]
    with pytest.raises(OverflowError):
        nullities(front + [(0,)] * 124)
    back = [(1 << i, 0, 1 << i) for i in range(117, 127)]
    nus = nullities([(0,)] * 117 + back)
    assert list(nus) == [117 + state.count(1) for state in itertools.product(range(3), repeat=10)]
    with pytest.raises(OverflowError):
        nullities([(0,)] * 118 + back)


@given(split_systems(), st.data())
def test_histogram_engine_matches_the_exhaustive_trace_route(system, data):
    # The exhaustive 2-letter trace sweep is the oracle. Any vertex order joins the same
    # states; the greedy min-cut order only keeps the cut, and so the DP, small.
    g, es, loops = system
    n = len(g.vertices)
    nus = partitions._traced_nullities(g, es, loops, 2, n, "subsets")
    expected = dict(Counter(zip(map(int.bit_count, range(1 << n)), nus)))
    assert partitions._traced_histogram(g, es, loops, 2**n) == expected
    order = data.draw(st.permutations(range(n)))
    options = [_pairing_options(g, es, loops, 2)[v] for v in order]
    cuts = _cuts(g.mate, [g.halves[v] for v in order])
    assert circuit_histogram(g.mate, options, -len(es.circuits), 2**n, cuts) == expected


@given(looped_systems(), st.data())
def test_cut_table_lists_the_unjoined_half_edges_with_joined_mates(system, data):
    # The cut at depth d, by its definition: the half-edges at the d-th joined vertex or later
    # whose mates are at an earlier one, under any order of the vertices.
    g, es, loops = system
    n = len(g.vertices)
    order = data.draw(st.permutations(range(n)))
    place = [order.index(v) for v in g.vertex_of]  # the depth at which each half-edge joins
    cuts = _cuts(g.mate, [g.halves[v] for v in order])
    assert len(cuts) == n + 1
    for d, cut in enumerate(cuts):
        expected = {h for h, p in enumerate(place) if p >= d > place[g.mate[h]]}
        assert len(cut) == len(expected) and set(cut) == expected


@st.composite
def symmetric_matrices(draw, max_n: int = 10):
    """Bit-packed rows of a symmetric GF(2) matrix of a drawn density, loops included."""
    n = draw(st.integers(0, max_n))
    density = draw(st.sampled_from((0.1, 0.3, 0.5, 0.9)))
    rng = draw(st.randoms(use_true_random=False))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        rows[i] |= (rng.random() < 0.5) << i
    return rows


def _looped_graph_of(rows):
    """The LoopedGraph whose ``matrix`` is the symmetric matrix ``rows``, diagonal as loops."""
    vertices = tuple(map(str, range(len(rows))))
    loops = frozenset(v for i, v in enumerate(vertices) if rows[i] >> i & 1)
    return LoopedGraph(vertices, tuple(r & ~(1 << i) for i, r in enumerate(rows)), loops)


@settings(max_examples=200)
@given(symmetric_matrices(), st.data())
def test_matrix_histogram_engine_matches_the_exhaustive_nullity_sweep(rows, data):
    # The 2^n nullity sweep is the oracle. Any vertex order joins the same states; the
    # cut-rank order only keeps the live kernels few.
    n = len(rows)
    nus = partitions._matrix_nullities(rows, 2, n, "subsets")
    expected = dict(Counter(zip(map(int.bit_count, range(1 << n)), nus)))
    assert nullity_histogram(rows, _looped_graph_of(rows).cut_order, 2**n) == expected
    order = data.draw(st.permutations(range(n)))
    assert nullity_histogram(rows, order, 2**n) == expected


@settings(max_examples=50)
@given(symmetric_matrices(), st.data())
def test_two_letter_join_is_the_first_two_letters_of_the_three_letter_join(rows, data):
    # The histogram joins e_v and A_v alone; Flip, their sum, comes third in every join.
    order = data.draw(st.permutations(range(len(rows))))
    visits = []
    real = sweep._joins

    def spy(kernel, bits, letters):
        visits.append((kernel, bits))
        return real(kernel, bits, letters)

    with mock.patch.object(sweep, "_joins", spy):
        nullity_histogram(rows, order, 2 ** len(rows))
    assert len(visits) >= len(rows)
    for kernel, bits in visits:
        three = real(kernel, bits, 3)
        assert len(three) == 6 and real(kernel, bits, 2) == three[:4]


@pytest.mark.parametrize("n, seed", [(n, n + k) for n in (16, 18, 20, 22, 24) for k in (0, 1, 2)])
def test_matrix_and_trace_histograms_agree_past_the_sweep(n, seed):
    # Two independent transfer matrices, one over the interlace matrix with its loops and
    # one over the passages, on seeded connected systems far past the 2^n sweeps.
    g, es, loops = seeded_looped_system(n, seed)
    counts = partitions._matrix_histogram(interlace_graph(es, loops), n)
    assert counts == partitions._traced_histogram(g, es, loops, 2**16)
    assert sum(counts.values()) == 2**n


@pytest.mark.parametrize("n", [SUBSET_SWEEP_LIMIT, SUBSET_SWEEP_LIMIT + 1])
def test_subset_polynomials_match_the_sweep_on_both_sides_of_the_size_rule(n, monkeypatch):
    # Up to SUBSET_SWEEP_LIMIT vertices q_N and q reduce the 2^n sweep, and above it the
    # matrix DP: the expected polynomials are multiplied out from the sweep's nullities.
    g, es, loops = seeded_looped_system(n, n + 100)
    h = interlace_graph(es, loops)
    nus = partitions._matrix_nullities(h.matrix.rows, 2, n, "subsets")
    counts = Counter(zip(map(int.bit_count, range(1 << n)), nus))
    x1, y1 = MultiPoly.variable("x") - 1, MultiPoly.variable("y") - 1
    q2 = sum((c * x1 ** (s - nu) * y1**nu for (s, nu), c in counts.items()), MultiPoly.constant(0))
    qn = sum((c * y1**nu for (_, nu), c in counts.items()), MultiPoly.constant(0))
    calls = []
    real = partitions.nullity_histogram
    monkeypatch.setattr(partitions, "nullity_histogram", lambda *a: calls.append(a) or real(*a))
    assert q_two_variable(h) == q2 and q_nullity(h) == qn
    assert len(calls) == (2 if n > SUBSET_SWEEP_LIMIT else 0)


@pytest.mark.parametrize("n", [11, 12])
def test_each_dp_route_gives_q_at_y_equal_x_as_x_to_the_n(n):
    # q(H; x, x) sums (x - 1)^|S| over the 2^n subsets S, which is x^n whatever the nullities.
    # The two DP routes share _transfer, so their match cannot show a fault in its |S| slots;
    # this identity checks each route's slots on its own, past the 2^n sweep.
    assert n > SUBSET_SWEEP_LIMIT
    x = MultiPoly.variable("x")
    for seed in (n, n + 100):
        g, es, loops = seeded_looped_system(n, seed)
        h = interlace_graph(es, loops)
        for q in q_two_variable(h), q2_from_partitions(g, es, loops):
            assert q.substitute({"y": x}) == x**n


def _pivot(h, a, b):
    """G^{ab} of a simple graph h on its edge ab: every edge between two different classes of
    N(a) - N(b) - b, N(b) - N(a) - a and N(a) & N(b) toggled; a and b keep their labels."""
    rows, na, nb = list(h.adjacency_rows), h.adjacency_rows[a], h.adjacency_rows[b]
    classes = na & ~nb & ~(1 << b), nb & ~na & ~(1 << a), na & nb
    for one, other in itertools.combinations(classes, 2):
        for u in range(h.n):
            if one >> u & 1:
                rows[u] ^= other
            elif other >> u & 1:
                rows[u] ^= one
    return LoopedGraph(h.vertices, tuple(rows), h.loops)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 12])
def test_pivot_identities_hold_on_the_matrix_route_alone(n):
    # Arratia-Bollobas-Sorkin's pivot identities for a simple graph G and an edge ab. The two
    # sides are different graphs, so no second route is needed: from 11 vertices q_N and q run
    # the matrix DP on each graph's kept order, and a fault in its nullity slots breaks one.
    rng = random.Random(f"pivot/{n}")
    for _ in range(3):
        a, b = sorted(rng.sample(range(n), 2))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        _assert_pivot_identities(looped_graph(range(n), set(edges) | {(a, b)}), a, b)


def _assert_pivot_identities(g, a, b):
    """The pivot identities on a simple graph g and its edge ab (vertex indices)."""
    x1 = MultiPoly.variable("x") - 1
    pivot, va, vb = _pivot(g, a, b), g.vertices[a], g.vertices[b]
    g_a, pivot_b = g.induced(set(g.vertices) - {va}), pivot.induced(set(g.vertices) - {vb})
    pivot_ab = pivot.induced(set(g.vertices) - {va, vb})
    q_n, q = partial(q_nullity, cap=g.n), partial(q_two_variable, cap=g.n)
    assert q_n(pivot) == q_n(g) == q_n(g_a) + q_n(pivot_b)
    assert q(g) == q(g_a) + q(pivot_b) + (x1**2 - 1) * q(pivot_ab)


def _local_complement(h, a):
    """G^a on a vertex index a: every edge uv, u != v, and every loop at u, for u, v in N(a),
    toggled; a keeps its label."""
    na = h.adjacency_rows[a]
    rows = [row ^ na & ~(1 << u) if na >> u & 1 else row for u, row in enumerate(h.adjacency_rows)]
    toggled = {v for u, v in enumerate(h.vertices) if na >> u & 1}
    return LoopedGraph(h.vertices, tuple(rows), h.loops ^ toggled)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 11, 12])
def test_looped_vertex_identity_holds_on_the_matrix_route_alone(n):
    # Aigner-van der Holst's recursion at a looped vertex a: q_N(G) = q_N(G - a) + q_N(G^a - a).
    # Unlike the pivot identities, it puts loops through the nullities: from 11 vertices
    # q_nullity(G) runs the matrix DP in G's kept order, and no trace route is touched.
    rng = random.Random(f"looped/{n}")
    for _ in range(3):
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        loops = {v for v in range(n) if rng.random() < 0.5}
        a = rng.randrange(n)
        _assert_looped_vertex_identity(looped_graph(range(n), edges, loops | {a}), a)


def _assert_looped_vertex_identity(g, a):
    """q_N(G) = q_N(G - a) + q_N(G^a - a) at a looped vertex index a."""
    rest = set(g.vertices) - {g.vertices[a]}
    g_a, local_a = g.induced(rest), _local_complement(g, a).induced(rest)
    assert q_nullity(g, cap=g.n) == q_nullity(g_a, cap=g.n) + q_nullity(local_a, cap=g.n)


@pytest.mark.parametrize("n", [16, 20, 24])
def test_pivot_and_looped_vertex_identities_hold_through_the_matrix_dp(n):
    # The identities above past the sweep, on interlace graphs of seeded connected systems,
    # where the matrix DP keeps far fewer states than on dense random graphs: the pivot
    # identities with the loops dropped, at the graph's first edge, and the looped-vertex
    # identity at its first looped vertex.
    for seed in (1000 + n, 2000 + n, 3000 + n):
        g, es, loops = seeded_looped_system(n, seed)
        simple, h = interlace_graph(es), interlace_graph(es, loops)
        a, row = next((a, row) for a, row in enumerate(simple.adjacency_rows) if row)
        _assert_pivot_identities(simple, a, (row & -row).bit_length() - 1)
        _assert_looped_vertex_identity(h, g.vertices.index(min(loops, key=g.vertices.index)))


@pytest.mark.parametrize("n", [*range(1, 13), 16, 20, 24, 28, 30])
def test_q_n_at_minus_one_is_minus_two_to_a_nullity_on_each_route(n):
    # Balister-Bollobas-Cutler-Pebody: q_N(H; -1) = (-1)^n (-2)^nu(A + I). One rank of one
    # matrix checks a route's whole histogram with no second route: the trace route runs its
    # DP at every n, and q_nullity the matrix DP above SUBSET_SWEEP_LIMIT.
    for seed in (1000 + n, 2000 + n, 3000 + n):
        g, es, loops = seeded_looped_system(n, seed)
        h = interlace_graph(es, loops)
        nu = n - bit_rank([row ^ 1 << i for i, row in enumerate(h.matrix.rows)])  # nu(A + I)
        expected = (-1) ** n * (-2) ** nu
        assert q_nullity(h, cap=n).evaluate({"y": -1}) == expected
        assert q_from_partitions(g, es, loops).evaluate({"y": -1}) == expected


def _tutte_diagonal(vertices, edges):
    """T(G; y, y) = sum over A of (y - 1)^(r(E) - 2 r(A) + |A|), one union-find per subset A."""

    def rank(subset):
        parent = {v: v for v in vertices}
        merged = 0
        for u, v in subset:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u != v:
                parent[u], merged = v, merged + 1
        return merged

    subsets = itertools.chain.from_iterable(
        itertools.combinations(edges, k) for k in range(len(edges) + 1)
    )
    exponents = Counter(rank(edges) - 2 * rank(a) + len(a) for a in subsets)
    y1 = MultiPoly.variable("y") - 1
    return sum((c * y1**e for e, c in exponents.items()), MultiPoly.constant(0))


def _polygon(k):
    """Vertices 0..k-1 on the unit circle, anticlockwise."""
    return {i: (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)) for i in range(k)}


def _cycle(k):
    return _polygon(k), [(i, (i + 1) % k) for i in range(k)]


def _grid(rows, cols):
    points = {(i, j): (i, j) for i in range(rows) for j in range(cols)}
    return points, [((i, j), (i + di, j + dj)) for i, j in points
                    for di, dj in ((0, 1), (1, 0)) if (i + di, j + dj) in points]


def _wheel(k):
    """The cycle C_k and a hub, vertex k, joined to each of its vertices."""
    points, edges = _cycle(k)
    return {**points, k: (0, 0)}, edges + [(k, i) for i in range(k)]


def _star(m):
    """K_{1,m}: m leaves on the unit circle and a hub, vertex m, joined to each."""
    return {**_polygon(m), m: (0, 0)}, [(m, i) for i in range(m)]


def _path(m):
    """P_{m+1}, the path with m edges, drawn on a line."""
    return {i: (i, 0) for i in range(m + 1)}, [(i, i + 1) for i in range(m)]


PLANE_GRAPHS = {
    "grid 2x2": _grid(2, 2),
    "grid 2x3": _grid(2, 3),
    "grid 3x3": _grid(3, 3),
    "W3": _wheel(3),
    "W5": _wheel(5),
    "W6": _wheel(6),
    "K1,5": _star(5),
    "P6": _path(5),
}


@pytest.mark.parametrize("name", PLANE_GRAPHS)
def test_each_route_gives_q_n_of_a_medial_graph_as_the_tutte_diagonal(name):
    # Martin: for a plane graph G, q_N of the interlace graph of an anticlockwise Euler system
    # of its medial graph is T(G; y, y). The expansion over G's edge subsets is a third route,
    # on another graph: it reads no GF(2) matrix and no medial half-edge.
    points, edges = PLANE_GRAPHS[name]
    g, es = plane_medial_system(points, edges)
    expected = _tutte_diagonal(points, edges)
    assert q_nullity(interlace_graph(es), cap=len(edges)) == expected
    assert q_from_partitions(g, es) == expected


@pytest.mark.parametrize("k", [3, 10, 30, 60, 100])
def test_each_route_gives_q_n_of_a_cycle_medial_graph_in_closed_form(k):
    # T(C_k; x, y) = y + x + x^2 + ... + x^(k-1), whose diagonal has no subset expansion to
    # wait for: at k = 30, 60 and 100 both DPs run far past the 2^n sweep.
    y = MultiPoly.variable("y")
    g, es = plane_medial_system(*_cycle(k))
    expected = y + sum((y**i for i in range(1, k)), MultiPoly.constant(0))
    assert q_nullity(interlace_graph(es), cap=k) == expected
    assert q_from_partitions(g, es) == expected


@pytest.mark.parametrize("m", [10, 30, 60])
@pytest.mark.parametrize("tree", [_path, _star], ids=["path", "star"])
def test_each_route_gives_q_n_of_a_tree_medial_graph_as_y_to_the_m(tree, m):
    # T(G; x, y) = x^m for a tree G with m edges, so T(G; y, y) = y^m. Each leaf of G gives a
    # medial loop and each vertex of degree 2 a parallel pair; past m = 10 both DPs run.
    g, es = plane_medial_system(*tree(m))
    expected = MultiPoly.variable("y") ** m
    assert q_nullity(interlace_graph(es), cap=m) == expected
    assert q_from_partitions(g, es) == expected


def test_subset_polynomials_bound_the_matrix_dp_by_their_vertex_cap_alone(monkeypatch):
    # No DP step holds more states than the 2^n subsets, so once the vertex cap admits n
    # vertices the DP gets room for all of them: no fixed state cap below 2^n can refuse it.
    n = 17
    g, es, loops = seeded_looped_system(n, n)
    h = interlace_graph(es, loops)
    caps = []
    real = partitions.nullity_histogram

    def spy(rows, order, cap):
        caps.append(cap)
        return real(rows, order, cap)

    monkeypatch.setattr(partitions, "nullity_histogram", spy)
    assert q_nullity(h, cap=n) == q_from_partitions(g, es, loops)
    assert q_two_variable(h, cap=n) == q2_from_partitions(g, es, loops)
    assert len(caps) == 2 and min(caps) >= 2**n


def _least_cut_rank_order(rows):
    """The order by its definition: least rank of A[J + v, rest], fewest entries, lowest index."""
    order = []
    while len(order) < len(rows):

        def cost(v):
            inside = sum(1 << u for u in order + [v])
            cut = [rows[u] & ~inside for u in order + [v]]
            return bit_rank(cut), sum(map(int.bit_count, cut)), v

        order.append(min((v for v in range(len(rows)) if v not in order), key=cost))
    return order


@given(symmetric_matrices(max_n=12), st.data())
def test_cut_rank_order_follows_its_definition(rows, data):
    # The order is kept on the LoopedGraph, as a tuple, and reads no loop: the cut A[J, not J]
    # holds no diagonal entry, so the same graph under any other loop set keeps the same order.
    h = _looped_graph_of(rows)
    assert h.matrix.rows == tuple(rows)
    assert h.cut_order == tuple(_least_cut_rank_order(rows))
    toggle = data.draw(st.integers(0, (1 << h.n) - 1))
    other = h.toggle_loops(v for i, v in enumerate(h.vertices) if toggle >> i & 1)
    assert other.cut_order == h.cut_order and h.cut_order is h.cut_order


def test_subset_polynomials_check_the_vertex_cap_before_the_dp_order():
    # Above SUBSET_SWEEP_LIMIT the refusal is the sweep's, and it comes before the order,
    # whose rank tests cost O(n^4) bit operations: a refused call leaves the order unbuilt.
    n = SUBSET_SWEEP_LIMIT + 2
    g, es, loops = seeded_looped_system(n, n)
    h = interlace_graph(es, loops)
    for evaluator in (q_nullity, q_two_variable):
        with pytest.raises(CapExceededError) as refusal:
            evaluator(h, cap=n - 1)
        assert str(refusal.value) == (
            f"refusing to sweep 2^{n} = {2**n} subsets "
            f"(cap is {n - 1} vertices; pass a larger cap to force it)"
        )
        assert "cut_order" not in h.__dict__


@pytest.mark.parametrize(
    "n, seed, peak", [(12, 12, 19), (16, 16, 113), (18, 18, 138), (20, 21, 136), (24, 25, 95)]
)
def test_matrix_route_cap_admits_exactly_the_peak(n, seed, peak):
    # The most live states any step holds, as the virtual-vertex DP that the kernel DP replaced
    # measured them: a cap of the peak admits the run, and one state less refuses it.
    g, es, loops = seeded_looped_system(n, seed)
    h = interlace_graph(es, loops)
    rows, order = h.matrix.rows, h.cut_order
    assert sum(nullity_histogram(rows, order, peak).values()) == 2**n
    refusal = rf"^refusing to keep {peak} states .*\(cap is {peak - 1} states;"
    with pytest.raises(CapExceededError, match=refusal):
        nullity_histogram(rows, order, peak - 1)


def test_matrix_route_refuses_within_two_states_of_the_cap():
    # As on the trace route, the cap is checked after each source state, which adds at most
    # two states, and the refusal names the states held, the largest kernel dimension among
    # them, the step and the cap.
    g, es, loops = seeded_looped_system(18, 18)
    h = interlace_graph(es, loops)
    for cap, held, step in (3, 4, 3), (10, 11, 5), (30, 31, 7):
        with pytest.raises(CapExceededError) as refusal:
            nullity_histogram(h.matrix.rows, h.cut_order, cap)
        assert re.fullmatch(
            rf"refusing to keep {held} states at kernel dimension \d+ after {step} of 18 vertices "
            rf"\(cap is {cap} states; pass a larger cap to force it\)",
            str(refusal.value),
        )


def test_a_matrix_histogram_that_loses_a_subset_is_an_internal_error(monkeypatch, tmp_path, capsys):
    n = SUBSET_SWEEP_LIMIT + 1
    g, es, loops = seeded_looped_system(n, n)
    h = interlace_graph(es, loops)
    fake = _drop_one_count(partitions.nullity_histogram)
    monkeypatch.setattr(partitions, "nullity_histogram", fake)
    for evaluator in (q_nullity, q_two_variable):
        with pytest.raises(RuntimeError, match=rf"^internal error: {2**n - 1} values for 2\^{n} "):
            evaluator(h)
    path = tmp_path / "word.dow"
    path.write_text("\n".join(" ".join(word) for word in es.words) + "\n")
    for command in ("qn", "q2"):
        assert main([command, "--dow", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: internal error: ")


# SHA-256 of the nullities and circuit_counts(..., 0) arrays on seeded_looped_system(n, n),
# as the odometer engines returned them (the (13, 3) row as the engines with a three-vertex
# leaf did), so a rewrite of either walk keeps every byte.
ENGINE_DIGESTS = {
    (10, 3): (
        "4967de706f00c277f326dfe26c616e615fe1729a9c602be1846098d8fea16f4a",
        "4ac31ba3a8bf2536a87887b481ee26598d020d573a1406f2e9a5180764b99a92",
    ),
    (13, 3): (
        "62530834a04270d824929214fa915c3cfb161469760061aaeca634d95e660c1e",
        "5e887480cd902496c4ff6929f2956b3df1021984ecdc0218b2393a70b0fe82be",
    ),
    (14, 2): (
        "4e84f310082c7fcef3b33ce91c5f80fda40762fd6b5ce13a60fce26a0dd4260e",
        "6441e1e1f814638e69c772a86714ecb007c1d89639d86e55de32684fa9b48860",
    ),
}


@pytest.mark.parametrize(
    "n, k", sorted(ENGINE_DIGESTS), ids=["n10-3-letters", "n13-3-letters", "n14-2-letters"]
)
def test_engines_match_their_recorded_digests(n, k):
    g, es, loops = seeded_looped_system(n, n)
    rows = interlace_graph(es, loops).matrix.rows
    nus = nullities(_row_options(rows, k))
    counts = circuit_counts(g.mate, _pairing_options(g, es, loops, k), 0, _cuts(g.mate, g.halves))
    assert len(nus) == len(counts) == k**n
    digests = tuple(hashlib.sha256(values.tobytes()).hexdigest() for values in (nus, counts))
    assert digests == ENGINE_DIGESTS[n, k]


@pytest.mark.parametrize("n", [5, 8, 10], ids=["K5", "n8", "n10"])
def test_circuit_counts_raise_only_when_a_state_leaves_the_signed_byte(n):
    # Every value is start plus a count (1 to 3 on K5), so the largest start that fits is
    # 127 minus the largest count, and the least is -128 minus the least count. With eight
    # vertices one lies above the memo and with ten three do, so its subtrees are shifted by
    # varying counts.
    g, es = from_double_occurrence_words([K5_WORD]) if n == 5 else seeded_looped_system(n, n)[:2]
    options, cuts = es._pairings, _cuts(g.mate, g.halves)
    counts = circuit_counts(g.mate, options, 0, cuts)
    high, low = 127 - max(counts), -128 - min(counts)
    assert list(circuit_counts(g.mate, options, high, cuts)) == [c + high for c in counts]
    assert list(circuit_counts(g.mate, options, low, cuts)) == [c + low for c in counts]
    for start in (high + 1, 126, low - 1):
        with pytest.raises(OverflowError):
            circuit_counts(g.mate, options, start, cuts)


def test_extended_cle_holds_past_the_hypothesis_sizes():
    g, es, _ = seeded_looped_system(12, 12)
    report = verify_extended_cle(g, es)
    assert report.ok and report.checked == 3**12


def test_matrix_and_trace_routes_give_one_q_past_the_hypothesis_sizes():
    g, es, loops = seeded_looped_system(18, 18)
    assert q_nullity(interlace_graph(es, loops), cap=18) == q_from_partitions(g, es, loops)


def test_empty_alphabet_product_has_one_state():
    assert list(nullities([])) == [0]
    assert list(circuit_counts((), [], 0, _cuts((), []))) == [0]
    assert list(circuit_counts((), [], -2, _cuts((), []))) == [-2]
    g = from_edge_list([])
    assert verify_extended_cle(g, euler_system(g)).checked == 1


def _assert_counts_match_walk(g, es, letters=3, order=()):
    """circuit_counts against _walk_circuits on every state over ``letters`` pairings.

    The vertices are swept in ``order`` if one is given, and the states in product order.
    """
    options = [pairings[:letters] for pairings in es._pairings]
    options = [options[v] for v in order] or options
    cuts = _cuts(g.mate, [g.halves[v] for v in order] or g.halves)
    counts = list(circuit_counts(g.mate, options, 0, cuts))
    states = list(itertools.product(*options))
    assert len(counts) == len(states) == letters ** len(options)
    for state, count in zip(states, counts):
        inv = [0] * g.num_half_edges
        for pairs in state:
            for h, k in pairs:
                inv[h], inv[k] = k, h
        assert count == len(_walk_circuits(g.mate, inv))


def _last_vertex_cases(g, es):
    """How the open strands meet the last vertex's options, over every prefix state.

    On a miss of the last vertex's memo, ``circuit_counts`` links each of its options
    pair by pair, so the second pair reads the ends the first has just linked. ``a``
    and ``b`` are the far ends of h1 and k1, found by walking the earlier vertices'
    passages. An option's first pair (h1, k1) either closes a curve (``close``), or
    links a and b, and then its second pair starts at h2 == a or h2 == b.
    """
    *prefix_options, last = es._pairings
    ends = {h for pairs in last[0] for h in pairs}
    cases = set()
    for prefix in itertools.product(*prefix_options):
        inv = [0] * g.num_half_edges
        for pairs in prefix:
            for h, k in pairs:
                inv[h], inv[k] = k, h

        def far_end(h):
            x = g.mate[h]
            while x not in ends:
                x = g.mate[inv[x]]
            return x

        for (h1, k1), (h2, _) in last:
            a, b = far_end(h1), far_end(k1)
            if a == k1:
                cases.add("close")
            else:
                cases.add("h2 == a" if h2 == a else "h2 == b" if h2 == b else "?")
    return cases


@pytest.mark.parametrize(
    "pairs, components",
    [
        ([], 0),
        ([("1", "1"), ("1", "1")], 1),
        (
            [("1", "2"), ("1", "2"), ("1", "3"), ("1", "3"), ("2", "3"), ("2", "3")]
            + [("4", "4"), ("4", "5"), ("4", "5"), ("5", "5")],
            2,
        ),
    ],
    ids=["no-vertices", "figure-eight", "two-components"],
)
def test_engine_matches_walk_on_small_fixtures(pairs, components):
    g = from_edge_list(pairs)
    es = euler_system(g)
    assert len(es.circuits) == components
    for letters in (2, 3):
        _assert_counts_match_walk(g, es, letters)


@pytest.mark.parametrize("letters", [2, 3])
@pytest.mark.parametrize("in_cut_order", [False, True], ids=["input-order", "cut-order"])
@pytest.mark.parametrize("n", [8, 9])
def test_engine_matches_walk_with_vertices_above_the_memo(n, in_cut_order, letters):
    # The engine memoizes the last seven vertices, so the state-by-state hypothesis tests
    # (at most seven vertices) never reach its walk. Here one or two vertices lie above the
    # memo, and each memoized subtree is shifted by the curves its prefix closed. The cut
    # orders are not the identity.
    g, es, _ = seeded_looped_system(n, n)
    assert g.cut_order != tuple(range(n))
    _assert_counts_match_walk(g, es, letters, g.cut_order if in_cut_order else ())


def test_engine_leaf_reads_ends_the_first_pair_joined():
    # K5 meets all three cases at its last vertex, whose memo holds the one-vertex subtrees.
    g, es = from_double_occurrence_words([K5_WORD])
    assert _last_vertex_cases(g, es) == {"close", "h2 == a", "h2 == b"}
    for letters in (2, 3):
        _assert_counts_match_walk(g, es, letters)


def test_sweep_reports_exactly_the_disagreeing_states(monkeypatch, tmp_path, capsys):
    g, es = from_double_occurrence_words([K5_WORD])
    wrong = {0, 1, 5, 242}
    real = partitions.nullities

    def off_by_one(options):
        return array("b", (nu + 1 if i in wrong else nu for i, nu in enumerate(real(options))))

    monkeypatch.setattr(partitions, "nullities", off_by_one)
    report = verify_extended_cle(g, es)
    assert report.checked == 243
    assert [f.assignment for f in report.failures] == [
        "1:F 2:F 3:F 4:F 5:F",
        "1:F 2:F 3:F 4:F 5:C",
        "1:F 2:F 3:F 4:C 5:X",
        "1:X 2:X 3:X 4:X 5:X",
    ]
    assert all(f.predicted == f.traced + 1 for f in report.failures)

    path = tmp_path / "k5.dow"
    path.write_text(K5_WORD + "\n")
    assert main(["verify-cle", "--dow", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "counterexample: 4 of 243 assignments disagree"
    assert out.splitlines()[1].startswith("  1:F 2:F 3:F 4:F 5:F: traced ")
    assert main(["verify-cle", "--dow", str(path), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "checked": 243,
        "failures": [
            {"assignment": "1:F 2:F 3:F 4:F 5:F", "predicted": 2, "traced": 1},
            {"assignment": "1:F 2:F 3:F 4:F 5:C", "predicted": 3, "traced": 2},
            {"assignment": "1:F 2:F 3:F 4:C 5:X", "predicted": 3, "traced": 2},
            {"assignment": "1:X 2:X 3:X 4:X 5:X", "predicted": 2, "traced": 1},
        ],
    }


@pytest.mark.parametrize("engine", ["nullities", "circuit_counts"])
def test_failures_come_in_product_order_when_the_sweeps_run_in_cut_order(engine, monkeypatch):
    # K5's cut order is the identity, so a wrong map from sweep places to states would pass
    # the test above. Here both routes sweep a, c, e, b, d, f. The faulty engine finds each
    # vertex from its own options and is wrong exactly on the chosen states: the failures
    # must name those, in product order over a..f.
    g = from_edge_list([(u, v) for u, v in zip("acebdf", "cebdfa")] * 2)
    es = euler_system(g)
    assert g.cut_order == (0, 2, 4, 1, 3, 5)
    wrong = [
        "a:F b:F c:F d:F e:F f:C",
        "a:F b:C c:F d:F e:F f:F",
        "a:C b:X c:X d:X e:X f:X",
        "a:X b:F c:C d:F e:F f:F",
    ]
    real = getattr(partitions, engine)

    def vertex(opts):  # nullities: e_v leads; circuit_counts: Follow's first half-edge
        return opts[0].bit_length() - 1 if engine == "nullities" else g.vertex_of[opts[0][0][0]]

    def faulty(*args):
        options = args[0] if engine == "nullities" else args[1]
        route, swept = real(*args), [vertex(opts) for opts in options]
        for i, letters in enumerate(itertools.product("FCX", repeat=len(options))):
            at = dict(zip(swept, letters))
            if " ".join(f"{v}:{at[u]}" for u, v in enumerate(g.vertices)) in wrong:
                route[i] += 1
        return route

    monkeypatch.setattr(partitions, engine, faulty)
    report = verify_extended_cle(g, es)
    assert report.checked == 729
    assert [f.assignment for f in report.failures] == wrong
    off = 1 if engine == "nullities" else -1
    assert all(f.predicted == f.traced + off for f in report.failures)


@given(looped_systems())
def test_cut_order_sweeps_are_the_product_order_sweeps_moved(system):
    # A state with letter d_v at vertex v sits at sum d_v 3^(n-1-v) in product order, and
    # at sum d_v 3^(n-1-p) in a sweep whose p-th vertex is v: on both routes.
    g, es, loops = system
    n, order = len(g.vertices), g.cut_order
    place = {v: 3 ** (n - 1 - p) for p, v in enumerate(order)}
    traced = partial(partitions._traced_nullities, g, es, loops)
    matrix = partial(partitions._matrix_nullities, interlace_graph(es, loops).matrix.rows)
    for build in traced, matrix:
        plain, swept = build(3, n, "assignments"), build(3, n, "assignments", order)
        for digits, nu in zip(itertools.product(range(3), repeat=n), plain, strict=True):
            assert swept[sum(d * place[v] for v, d in enumerate(digits))] == nu


def test_a_graph_over_the_cap_is_refused_before_its_cut_order():
    # The greedy order is O(n^2) and would cost the refusal of a large graph most of its
    # time; a foreign Euler system is still refused first.
    g = from_edge_list([(str(i), str((i + 1) % 2000)) for i in range(2000)] * 2)
    with pytest.raises(CapExceededError, match=r"3\^2000 = \d+ assignments \(cap is 14 "):
        verify_extended_cle(g, euler_system(g))
    assert "cut_order" not in g.__dict__
    k5, _ = from_double_occurrence_words([K5_WORD])
    _, other = from_double_occurrence_words(["1 2 1 2", "3 4 5 3 4 5"])
    with pytest.raises(ValueError, match="Euler system belongs to a different multigraph"):
        verify_extended_cle(k5, other, cap=0)
    assert "cut_order" not in k5.__dict__


def test_a_sweep_of_the_wrong_length_is_an_internal_error(monkeypatch, tmp_path, capsys):
    g, es = from_double_occurrence_words([K5_WORD])
    real = partitions.nullities
    monkeypatch.setattr(partitions, "nullities", lambda options: real(options)[1:])
    with pytest.raises(RuntimeError, match="^internal error: "):
        verify_extended_cle(g, es)

    path = tmp_path / "k5.dow"
    path.write_text(K5_WORD + "\n")
    assert main(["verify-cle", "--dow", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: 242 values for 3^5 assignments\n"


@pytest.mark.parametrize("state, nu", [(0, 1), (242, -1)], ids=["above |A u B|", "negative"])
def test_a_nullity_out_of_bounds_is_an_internal_error(state, nu, monkeypatch, tmp_path, capsys):
    # C(H) is built without make's checks, so a nullity outside 0..|A u B| must be caught
    # by its own: state 0 is A = B = empty, and state 242 puts every vertex of K5 in B.
    g, es = from_double_occurrence_words([K5_WORD])
    real = partitions.nullities

    def swapped(options):
        route = real(options)
        if len(route) == 243:  # the three-letter sweep only
            route[state] = nu
        return route

    monkeypatch.setattr(partitions, "nullities", swapped)
    with pytest.raises(RuntimeError, match=r"^internal error: a nullity outside 0\.\.\|A u B\|$"):
        courcelle(interlace_graph(es))

    path = tmp_path / "k5.dow"
    path.write_text(K5_WORD + "\n")
    assert main(["courcelle", "--dow", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal error: a nullity outside 0..|A u B|\n"


def _drop_one_count(real):
    """A fake histogram engine that loses one state."""

    def fake(*args):
        counts = dict(real(*args))
        counts[next(iter(counts))] -= 1
        return counts

    return fake


@pytest.mark.parametrize("engine", ["nullities", "circuit_counts", "circuit_histogram"])
def test_a_route_of_the_wrong_length_fails_every_reader(engine, monkeypatch, tmp_path, capsys):
    # One state dropped from any engine: every evaluator that reads its route raises an
    # internal error instead of giving a wrong polynomial, and every command that runs it
    # exits 3 with one line on stderr. The polynomial commands read the matrix route only,
    # and the traced q_N and q read the histogram engine, not circuit_counts.
    g, es = from_double_occurrence_words([K5_WORD])
    h = interlace_graph(es)
    real = getattr(partitions, engine)
    if engine == "circuit_histogram":
        monkeypatch.setattr(partitions, engine, _drop_one_count(real))
    else:
        monkeypatch.setattr(partitions, engine, lambda *args: real(*args)[1:])
    verify = partial(verify_extended_cle, g, es)
    readers = {
        "nullities": [*(partial(f, h) for f in (q_nullity, q_two_variable, courcelle)), verify],
        "circuit_counts": [partial(courcelle_from_partitions, g, es), verify],
        "circuit_histogram": [partial(f, g, es) for f in (q_from_partitions, q2_from_partitions)],
    }[engine]
    for read in readers:
        with pytest.raises(RuntimeError, match="^internal error: "):
            read()

    path = tmp_path / "k5.dow"
    path.write_text(K5_WORD + "\n")
    commands = {
        "nullities": ["qn", "q2", "courcelle", "verify-cle"],
        "circuit_counts": ["verify-cle"],
        "circuit_histogram": [],  # no command runs the traced q_N or q
    }[engine]
    for command in commands:
        assert main([command, "--dow", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal error: ")
        assert captured.err.count("\n") == 1


def _reached(name):
    """The names of ``sweep`` that the function ``name`` reaches, through its nested code and
    through each ``sweep`` function it names (a cached one by its ``__wrapped__``)."""
    seen, todo = {name}, [name]
    while todo:
        obj = vars(sweep)[todo.pop()]
        obj = getattr(obj, "__wrapped__", obj)
        codes = [obj.__code__] if getattr(obj, "__module__", None) == sweep.__name__ else []
        while codes:
            code = codes.pop()
            codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
            for used in set(code.co_names) & vars(sweep).keys() - seen:
                seen.add(used)
                todo.append(used)
    return seen


@pytest.mark.parametrize(
    "engines, own, foreign",
    [
        (
            ["circuit_counts", "circuit_histogram"],
            {"_link", "_unlink", "_far_ends"},
            {"_step", "_step6", "_joins", "_subtree", "_LEAVES"},
        ),
        (
            ["nullities", "nullity_histogram"],
            {"_step", "_joins"},
            {"_link", "_unlink", "_far_ends"},
        ),
    ],
)
def test_each_route_reaches_none_of_the_other_routes_helpers(engines, own, foreign):
    # The routes stay independent: no name that one side's engines reach, followed through
    # sweep's own functions and their nested code, is a helper of the other side. _transfer
    # and _SHIFTS, which both sides use, are in neither list.
    for engine in engines:
        reached = _reached(engine)
        assert own <= reached and not reached & foreign, engine


def _overflows(sweep, *args):
    with pytest.raises(OverflowError):
        sweep(*args)


@pytest.mark.parametrize(
    "sweep_name",
    [
        "nullities", "circuit_counts", "verify_extended_cle", "q_nullity",
        "nullities past 127", "circuit_counts past 127",
    ],
)
def test_exhaustive_sweeps_leave_no_cyclic_garbage(sweep_name):
    # The walks are nested functions that reach themselves through their closure cells. Each
    # sweep breaks that cycle in a finally, as it returns or raises, so its memo and walk state
    # are freed at once, not left for the cyclic collector.
    g, es, loops = seeded_looped_system(10, 10)
    h = interlace_graph(es, loops)
    passages, cuts = partitions._passages(g, es, loops, 3), _cuts(g.mate, g.halves)
    k5, k5_es = from_double_occurrence_words([K5_WORD])
    sweeps = {
        "nullities": partial(nullities, partitions._row_options(es._interlace_rows)),
        "circuit_counts": partial(circuit_counts, g.mate, passages, 0, cuts),
        "verify_extended_cle": partial(verify_extended_cle, g, es),
        "q_nullity": partial(q_nullity, h),
        # 130 dependent rows, and 126 plus K5's closed curves: each passes 127 and raises.
        "nullities past 127": partial(_overflows, nullities, [[0]] * 130),
        "circuit_counts past 127": partial(
            _overflows, circuit_counts, k5.mate, k5_es._pairings, 126, _cuts(k5.mate, k5.halves)
        ),
    }
    run = sweeps[sweep_name]
    run()  # the first call builds the kept tables and module caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("engine", ["nullities", "circuit_counts", "circuit_histogram"])
def test_kept_tables_hold_inputs_only(engine, monkeypatch):
    # The system's pairings and interlace rows, the graph's cut table and the looped graph's
    # matrix are kept after the first calls. A faulty engine swapped in afterwards must still
    # show on the same objects: no route's result is kept with them.
    g, es = from_double_occurrence_words([K5_WORD])
    loops = {"2", "4"}
    h = interlace_graph(es, loops)
    first = (q_from_partitions(g, es, loops), q_nullity(h), verify_extended_cle(g, es))
    assert first[0] == first[1] and first[2].ok
    real = getattr(partitions, engine)

    def faulty(*args):
        route = real(*args)
        if engine != "circuit_histogram":
            route[-1] += 1  # the last state's value
            return route
        (s, k), *_ = route  # one subset moves to the next nullity
        route[s, k] -= 1
        route[s, k + 1] = route.get((s, k + 1), 0) + 1
        return route

    monkeypatch.setattr(partitions, engine, faulty)
    if engine == "circuit_histogram":
        assert q_from_partitions(g, es, loops) != first[0]
        return
    if engine == "nullities":
        assert q_nullity(h) != first[1]
    assert len(verify_extended_cle(g, es).failures) == 1


def test_kept_tables_hold_inputs_only_past_the_subset_sweep(monkeypatch):
    # Past SUBSET_SWEEP_LIMIT q_N runs the matrix DP in the looped graph's kept cut_order. A
    # faulty DP swapped in after a first call must still show on the same graph: the kept order
    # holds no route result.
    n = SUBSET_SWEEP_LIMIT + 1
    g, es, loops = seeded_looped_system(n, n)
    h = interlace_graph(es, loops)
    first = q_nullity(h)
    assert first == q_from_partitions(g, es, loops) and "cut_order" in vars(h)
    real = partitions.nullity_histogram

    def faulty(*args):
        counts = real(*args)
        (s, k), *_ = counts  # one subset moves to the next nullity
        counts[s, k] -= 1
        counts[s, k + 1] = counts.get((s, k + 1), 0) + 1
        return counts

    monkeypatch.setattr(partitions, "nullity_histogram", faulty)
    assert q_nullity(h) != first


@given(looped_systems())
def test_trace_engines_read_the_graph_cut_table_as_their_own(system):
    # Under cut_order the engines read the cut table the graph keeps, built from each vertex's
    # half-edges in ascending order. A table built from them as each vertex's Follow pairing
    # lists them holds the same cuts, perhaps in another order within a cut, which names the
    # same states: every result is the same.
    g, es, loops = system
    n = len(g.vertices)
    passages = _pairing_options(g, es, loops, 3)
    options = [passages[v] for v in g.cut_order]
    assert g._cut_table == _cuts(g.mate, [g.halves[v] for v in g.cut_order])
    built = _cuts(g.mate, [sum(pairs[0], ()) for pairs in options])
    assert list(map(set, g._cut_table)) == list(map(set, built))
    for k in (2, 3):
        letters = [pairs[:k] for pairs in options]
        kept = circuit_counts(g.mate, letters, 0, g._cut_table)
        assert kept == circuit_counts(g.mate, letters, 0, built)
    pairs2 = [pairs[:2] for pairs in options]
    counts = circuit_histogram(g.mate, pairs2, 0, 2**n, g._cut_table)
    assert counts == circuit_histogram(g.mate, pairs2, 0, 2**n, built)
