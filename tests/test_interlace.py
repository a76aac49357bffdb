"""Interlacement detection, interlace matrices/graphs, kappa transforms."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    dow_words,
    entry_by_label,
    euler_systems,
    interlaced,
    principal_submatrix,
    set_diagonal,
)
from circuitnull.errors import InputFormatError
from circuitnull.graphs import (
    check_euler_system,
    cyclic_word_key,
    from_double_occurrence_words,
)
from circuitnull.interlace import (
    interlace_graph,
    interlace_matrix,
    interlacement_toggle_check,
    kappa_transform,
    looped_graph,
    parse_looped_graph_text,
)
from circuitnull.partitions import canonical_circuit

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


def test_interlace_graph_decoration(k5):
    _, es = k5
    plain = interlace_graph(es)
    assert plain.matrix() == interlace_matrix(es)
    decorated = interlace_graph(es, {"2", "3"})
    sub = principal_submatrix(decorated.matrix(), {"2", "3", "4", "5"})
    assert sub.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]
    everything = interlace_graph(es, set("12345"))
    assert all(everything.matrix().entry(i, i) == 1 for i in range(5))
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
        assert canonical_circuit(before) == canonical_circuit(after)


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
    with pytest.raises(ValueError, match="unknown"):
        kappa_transform(es, "9")


def test_looped_graph_basics():
    h = looped_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], loops=["b"])
    assert h.matrix().to_lists() == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    induced = h.induced({"a", "b"})
    assert induced.vertices == ("a", "b")
    assert induced.matrix() == principal_submatrix(h.matrix(), {"a", "b"})
    toggled = h.toggle_loops({"a", "b"})
    assert toggled.loops == {"a"}
    with pytest.raises(ValueError, match="loop at a"):
        looped_graph(["a"], [("a", "a")])


def test_looped_graph_text_format():
    h = parse_looped_graph_text("vertices: a b c\nloops: b\na b\nb c\n")
    assert h.loops == {"b"}
    assert h.matrix().to_lists() == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    with pytest.raises(InputFormatError, match="line 1"):
        parse_looped_graph_text("a b\n")
    with pytest.raises(InputFormatError, match="line 2"):
        parse_looped_graph_text("vertices: a b\na b c\n")
