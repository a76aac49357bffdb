"""Interlacement detection, interlace matrices/graphs, kappa transforms."""

from __future__ import annotations

import itertools
import random
import re
import sys
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    dow_words,
    entry_by_label,
    euler_systems,
    interlaced,
    least_by_search,
    multigraphs,
    principal_submatrix,
    set_diagonal,
)
from circuitnull import interlace
from circuitnull.errors import InputFormatError
from circuitnull.graphs import (
    _interleaving_rows,
    check_euler_system,
    cyclic_word_key,
    directed_euler_system,
    euler_system,
    from_double_occurrence_words,
)
from circuitnull.interlace import (
    LoopedGraph,
    interlace_graph,
    interlace_matrix,
    interlacement_toggle_check,
    kappa_transform,
    looped_graph,
    parse_looped_graph_text,
)
from circuitnull.permutations import Permutation, permutation_to_digraph

K5_WORD = "1 2 3 4 5 1 3 5 2 4"

# hand-derived from the occurrence positions in the K5 circuit
K5_INTERLACE = [
    [0, 1, 1, 1, 1],
    [1, 0, 0, 1, 0],
    [1, 0, 0, 1, 1],
    [1, 1, 1, 0, 0],
    [1, 0, 1, 0, 0],
]


@pytest.fixture()
def k5():
    return from_double_occurrence_words([K5_WORD])


def test_interlaced_examples(k5):
    _, es = k5
    assert interlaced(es, "1", "2")
    assert not interlaced(es, "2", "3")
    assert interlaced(es, "3", "5")


def test_interlaced_toy_words():
    _, es = from_double_occurrence_words(["a b a b"])
    assert interlaced(es, "a", "b")
    _, es2 = from_double_occurrence_words(["a a b b"])
    assert not interlaced(es2, "a", "b")


def test_interlaced_errors(k5):
    _, es = k5
    with pytest.raises(ValueError, match="unknown"):
        interlaced(es, "1", "9")
    with pytest.raises(ValueError, match="distinct"):
        interlaced(es, "1", "1")


def test_k5_interlace_matrix(k5):
    _, es = k5
    m = interlace_matrix(es)
    assert m.to_lists() == K5_INTERLACE
    assert m.to_lists() == [list(col) for col in zip(*m.to_lists())]  # symmetric
    assert all(m.entry(i, i) == 0 for i in range(m.n))


def test_k5_submatrix_reproduces_partition_matrix(k5):
    # restriction to {2,3,4,5} with the diagonal set at the flipped vertices
    _, es = k5
    sub = principal_submatrix(interlace_matrix(es), {"2", "3", "4", "5"})
    sub = set_diagonal(set_diagonal(sub, "2", 1), "3", 1)
    assert sub.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]


def test_single_vertex_matrix():
    _, es = from_double_occurrence_words(["v v"])
    assert interlace_matrix(es).to_lists() == [[0]]


def test_two_components_never_interlace():
    _, es = from_double_occurrence_words(["1 2 1 2", "3 4 3 4"])
    m = interlace_matrix(es)
    for u in ("1", "2"):
        for v in ("3", "4"):
            assert not interlaced(es, u, v)
            assert entry_by_label(m, u, v) == 0
    assert entry_by_label(m, "1", "2") == 1
    assert entry_by_label(m, "3", "4") == 1


@given(
    st.one_of(
        euler_systems(max_vertices=9, max_components=3),
        multigraphs(max_vertices=7).map(lambda g: (g, euler_system(g))),
    )
)
def test_interlace_matrix_is_alternation_read_off_the_words(pair):
    # u and v interlace iff they share a word and one occurrence of v lies between u's two.
    g, es = pair
    expected = [[0] * len(g.vertices) for _ in g.vertices]
    for word in es.words:
        at = {v: [p for p, x in enumerate(word) if x == v] for v in word}
        for u, (p, q) in at.items():
            for v, positions in at.items():
                if sum(p < r < q for r in positions) == 1:
                    expected[g.vertex_index(u)][g.vertex_index(v)] = 1
    assert interlace_matrix(es).to_lists() == expected


def test_interleaving_rows_hold_at_most_twice_their_own_size():
    # The pair digraph of a shuffled permutation of 4,096 elements has 2,048 vertices. Its
    # rows are built in one pass over the chord ends, which keeps only the open chords'
    # parities, each in the row it becomes: the peak stays within twice the rows' size.
    rng = random.Random(4096)
    image = list(range(1, 4097))
    rng.shuffle(image)
    pd = permutation_to_digraph(Permutation(tuple(image)))
    es = directed_euler_system(pd.graph, pd.is_out)
    assert len(es.circuits) == 1
    chords = [(p, q) for (_, p, _, _), (_, q, _, _) in es.visits]
    tracemalloc.start()
    try:
        rows = _interleaving_rows(chords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == list(interlace_matrix(es).rows)
    assert peak <= 2 * (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)))


def test_interlace_graph_decoration(k5):
    _, es = k5
    plain = interlace_graph(es)
    assert plain.matrix == interlace_matrix(es)
    decorated = interlace_graph(es, {"2", "3"})
    sub = principal_submatrix(decorated.matrix, {"2", "3", "4", "5"})
    assert sub.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]
    everything = interlace_graph(es, set("12345"))
    assert all(everything.matrix.entry(i, i) == 1 for i in range(5))
    with pytest.raises(ValueError, match="unknown"):
        interlace_graph(es, {"9"})


def test_kappa_palindromic_segment_keeps_word():
    _, es = from_double_occurrence_words(["a b a b"])
    assert kappa_transform(es, "a").word(0) == ("a", "b", "a", "b")


def test_kappa_double_transform_swaps_segments():
    # a C1 b C2 a C3 b C4 -> a C1 b C4 a C3 b C2 with C2=e, C4=f
    _, es = from_double_occurrence_words(["a e b e a f b f"])
    assert interlaced(es, "a", "b")
    out = kappa_transform(kappa_transform(kappa_transform(es, "a"), "b"), "a")
    check_euler_system(out)
    assert cyclic_word_key(out.word(0)) == cyclic_word_key("a e b f a f b e".split())


@given(euler_systems(), st.data())
def test_kappa_produces_valid_system_on_same_edges(pair, data):
    g, es = pair
    a = data.draw(st.sampled_from(g.vertices))
    out = kappa_transform(es, a)
    assert out.graph == g
    check_euler_system(out)


@given(euler_systems(), st.data())
def test_kappa_twice_restores_the_circuit(pair, data):
    g, es = pair
    a = data.draw(st.sampled_from(g.vertices))
    twice = kappa_transform(kappa_transform(es, a), a)
    for before, after in zip(es.circuits, twice.circuits):
        assert least_by_search(before, 2) == least_by_search(after, 2)


@given(dow_words(), st.data())
def test_toggle_law(word, data):
    g, es = from_double_occurrence_words([word])
    a = data.draw(st.sampled_from(g.vertices))
    report = interlacement_toggle_check(es, a)
    assert report.ok, report.violations
    # the law, restated directly
    out = kappa_transform(es, a)
    for i, u in enumerate(g.vertices):
        for w in g.vertices[i + 1:]:
            if a in (u, w):
                continue
            toggled = interlaced(es, u, w) != interlaced(out, u, w)
            assert toggled == (interlaced(es, u, a) and interlaced(es, w, a))


@given(dow_words(), st.data())
def test_kappa_preserves_own_row(word, data):
    g, es = from_double_occurrence_words([word])
    a = data.draw(st.sampled_from(g.vertices))
    out = kappa_transform(es, a)
    for v in g.vertices:
        if v != a:
            assert interlaced(es, v, a) == interlaced(out, v, a)


def test_toggle_check_k5_all_pairs_toggle(k5):
    # vertex 1 is interlaced with everything, so every pair must toggle
    _, es = k5
    out = kappa_transform(es, "1")
    for u in "2345":
        for w in "2345":
            if u < w:
                assert interlaced(es, u, w) != interlaced(out, u, w)
    assert interlacement_toggle_check(es, "1").ok


@given(euler_systems(), st.data())
def test_toggle_check_lists_the_pairs_a_wrong_kappa_breaks(pair, data):
    # A stand-in kappa (the identity, or kappa at any vertex) may break the law on some pairs.
    g, es = pair
    a = data.draw(st.sampled_from(g.vertices))
    b = data.draw(st.sampled_from((None,) + g.vertices))
    after = es if b is None else kappa_transform(es, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interlace, "kappa_transform", lambda *_: after)
        report = interlacement_toggle_check(es, a)
    others = [v for v in g.vertices if v != a]
    expected = [
        (u, w)
        for u, w in itertools.combinations(others, 2)
        if (interlaced(es, u, w) != interlaced(after, u, w))
        != (interlaced(es, u, a) and interlaced(es, w, a))
    ]
    assert report.violations == tuple(expected)
    assert report.pairs_checked == len(others) * (len(others) - 1) // 2


def test_toggle_check_reports_violations_in_pair_order(k5, monkeypatch):
    # 1 is interlaced with every vertex, so kappa at 1 toggles every pair of 2, 3, 4, 5; at 5
    # (interlaced with 1 and 3) the law wants only (1, 3) toggled.
    _, es = k5
    at_1 = kappa_transform(es, "1")
    monkeypatch.setattr(interlace, "kappa_transform", lambda *_: es)
    report = interlacement_toggle_check(es, "1")
    assert report.violations == tuple(itertools.combinations("2345", 2)) and not report.ok
    monkeypatch.setattr(interlace, "kappa_transform", lambda *_: at_1)
    report = interlacement_toggle_check(es, "5")
    assert report.violations == (("1", "3"), ("2", "3"), ("2", "4"), ("3", "4"))
    assert report.pairs_checked == 6


def test_toggle_check_word_with_no_interlacement():
    _, es = from_double_occurrence_words(["a a b b c c"])
    report = interlacement_toggle_check(es, "a")
    assert report.ok and report.pairs_checked == 1
    out = kappa_transform(es, "a")
    assert interlaced(es, "b", "c") == interlaced(out, "b", "c")


def test_toggle_check_three_letter_word():
    _, es = from_double_occurrence_words(["a b c a b c"])
    assert interlaced(es, "b", "a") and interlaced(es, "c", "a")
    out = kappa_transform(es, "a")
    assert interlaced(es, "b", "c") != interlaced(out, "b", "c")


def test_kappa_unknown_vertex(k5):
    _, es = k5
    with pytest.raises(ValueError, match=r"^unknown vertex '9'$"):
        kappa_transform(es, "9")


def test_looped_graph_basics():
    h = looped_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], loops=["b"])
    assert h.matrix.to_lists() == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    induced = h.induced({"a", "b"})
    assert induced.vertices == ("a", "b")
    assert induced.matrix == principal_submatrix(h.matrix, {"a", "b"})
    toggled = h.toggle_loops({"a", "b"})
    assert toggled.loops == {"a"}
    with pytest.raises(ValueError, match="loop at a"):
        looped_graph(["a"], [("a", "a")])


def test_the_first_unknown_loop_vertex_is_named():
    # Given labels are checked in the order given; a LoopedGraph's own set in label order.
    with pytest.raises(ValueError, match=r"^loop on unknown vertex '9'$"):
        looped_graph(["1"], loops=["9", "1", "7", "8"])
    _, es = from_double_occurrence_words(["1 1"])
    with pytest.raises(ValueError, match=r"^unknown vertex '9'$"):
        interlace_graph(es, ["9", "7", "8"])
    with pytest.raises(ValueError, match=r"^loop on unknown vertex '7'$"):
        LoopedGraph(("1",), (0,), frozenset({"9", "8", "10", "7"}))


def test_adjacency_must_be_symmetric_at_every_neighbour():
    # Vertex a's row names c and b, but only c names a back; b's row is empty.
    with pytest.raises(ValueError, match="^adjacency must be symmetric$"):
        LoopedGraph(("a", "b", "c"), (0b110, 0, 0b001), frozenset())
    assert LoopedGraph(("a", "b", "c"), (0b110, 0b001, 0b001), frozenset()).n == 3


def test_looped_graph_text_format():
    h = parse_looped_graph_text("vertices: a b c\nloops: b\na b\nb c\n")
    assert h.loops == {"b"}
    assert h.matrix.to_lists() == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    with pytest.raises(InputFormatError, match="line 1"):
        parse_looped_graph_text("a b\n")
    with pytest.raises(InputFormatError, match="line 2"):
        parse_looped_graph_text("vertices: a b\na b c\n")
    with pytest.raises(InputFormatError, match="^line 3: duplicate vertices line$"):
        parse_looped_graph_text("vertices: a b\n\nvertices: a b\n")
    with pytest.raises(InputFormatError, match="^line 3: unknown vertex 'c'$"):
        parse_looped_graph_text("vertices: a b\na b\na c\n")
    loop_edge = "^line 2: loop at a must be given through the loop set$"
    with pytest.raises(InputFormatError, match=loop_edge):
        parse_looped_graph_text("vertices: a b\na a\n")
    with pytest.raises(InputFormatError, match="^line 1: duplicate vertices$"):
        parse_looped_graph_text("vertices: a b a\na b\n")
    # A loops line may come before the vertices line; an unknown label there names that line.
    with pytest.raises(InputFormatError, match="^line 2: loop on unknown vertex 'z'$"):
        parse_looped_graph_text("loops: a\nloops: b z\nvertices: a b\na b\n")
    assert parse_looped_graph_text("loops: b\nvertices: a b\na b\n").loops == {"b"}


@given(euler_systems(), st.data())
def test_looped_graph_matrix_is_built_once_from_the_system_rows(pair, data):
    # Every loop set reads the system's one table of interlace rows, and each looped graph
    # builds and validates its matrix once. The matrix is no field: equality and hashing
    # read the vertices, rows and loops alone.
    _, es = pair
    loops = data.draw(st.frozensets(st.sampled_from(es.graph.vertices)))
    h = interlace_graph(es, loops)
    assert h.adjacency_rows is es._interlace_rows is interlace_matrix(es).rows
    m = h.matrix
    assert h.matrix is m and isinstance(m.labels, tuple) and isinstance(m.rows, tuple)
    assert [f.name for f in fields(h)] == ["vertices", "adjacency_rows", "loops"]
    fresh = LoopedGraph(h.vertices, h.adjacency_rows, h.loops)
    assert fresh == h and hash(fresh) == hash(h) and "matrix" not in vars(fresh)
    assert fresh.matrix == m and fresh.matrix is not m
    rows = zip(h.vertices, h.adjacency_rows)
    assert m.rows == tuple(row | (v in loops) << i for i, (v, row) in enumerate(rows))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LoopedGraph(("a", "a"), (0, 0), frozenset()), "duplicate vertices"),
        (
            lambda: LoopedGraph(("a", "b"), (0,), frozenset()),
            "adjacency rows do not match vertices",
        ),
        (
            lambda: LoopedGraph(("a", "b"), (4, 0), frozenset()),
            "adjacency row 0 has bits outside the graph",
        ),
        (  # b is adjacent to a and to itself
            lambda: LoopedGraph(("a", "b"), (2, 3), frozenset()),
            "adjacency must be irreflexive (vertex b)",
        ),
        (lambda: looped_graph(["a"], [("a", "b")]), "unknown vertex 'b'"),
    ],
    ids=["duplicate-vertices", "row-count", "bits-outside", "self-adjacent", "unknown-edge-vertex"],
)
def test_looped_graph_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
