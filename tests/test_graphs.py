"""Multigraph construction, components, Euler systems, orientation."""

from __future__ import annotations

import random
import re
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dow_words, euler_systems, least_by_search, multigraphs
from circuitnull.errors import InputFormatError
from circuitnull.graphs import (
    EulerSystem,
    Multigraph,
    check_euler_system,
    components,
    cyclic_word_key,
    directed_euler_system,
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    orient,
    random_regular_multigraph,
    read_dow_text,
    read_edge_list_text,
    reversed_component,
    sorted_labels,
)

DOUBLED_TRIANGLE = [(1, 2), (1, 2), (2, 3), (2, 3), (3, 1), (3, 1)]
K5_WORD = "1 2 3 4 5 1 3 5 2 4"


def test_two_loops_single_vertex():
    g = from_edge_list([(1, 1), (1, 1)])
    assert g.vertices == ("1",)
    assert g.num_edges == 2
    assert euler_system(g).word(0) == ("1", "1")


def test_doubled_triangle_shape():
    g = from_edge_list(DOUBLED_TRIANGLE)
    assert g.vertices == ("1", "2", "3")
    assert g.num_edges == 6
    assert components(g) == (("1", "2", "3"),)


def test_doubled_triangle_euler_word():
    # frozen output of smallest-id Hierholzer on the interleaved numbering;
    # hand-checked walk: 1-2, 2-1, 1-3, 3-2, 2-3, 3-1
    g = from_edge_list(DOUBLED_TRIANGLE)
    es = euler_system(g)
    check_euler_system(es)
    assert es.word(0) == ("1", "2", "1", "3", "2", "3")


# Two doubled triangles whose edges interleave in the input, so their half-edge ids do too.
TWO_TRIANGLES = [
    (1, 2), (4, 5), (1, 2), (2, 3), (5, 6), (2, 3), (3, 1), (4, 5), (3, 1), (5, 6), (6, 4), (6, 4)
]


def test_euler_circuits_are_pinned():
    # Frozen output of smallest-id Hierholzer, one circuit per component in order of smallest id.
    g = from_edge_list(TWO_TRIANGLES)
    es = euler_system(g)
    assert es.circuits == (
        (0, 1, 5, 4, 13, 12, 7, 6, 10, 11, 16, 17),
        (2, 3, 8, 9, 19, 18, 15, 14, 21, 20, 22, 23),
    )
    loops = from_edge_list([(1, 1), (1, 2), (1, 2), (2, 3), (3, 3), (2, 3)])
    assert euler_system(loops).circuits == ((0, 1, 2, 3, 6, 7, 8, 9, 11, 10, 5, 4),)
    # Directed: a reversed component departs from 2k + 1, the other half of its smallest edge.
    assert directed_euler_system(g, orient(reversed_component(es, 0))).circuits == (
        (1, 0, 4, 5, 6, 7, 12, 13, 17, 16, 11, 10),
        (2, 3, 8, 9, 19, 18, 15, 14, 21, 20, 22, 23),
    )
    assert directed_euler_system(g, orient(reversed_component(es, 1))).circuits == (
        (0, 1, 5, 4, 13, 12, 7, 6, 10, 11, 16, 17),
        (3, 2, 14, 15, 18, 19, 20, 21, 23, 22, 9, 8),
    )


@pytest.mark.parametrize(
    "words, circuits, message",
    [
        ([K5_WORD], ((0, 1, 2),), "circuit length must be positive and even"),
        (
            [K5_WORD],
            (tuple(range(1, 20)) + (0,),),
            "positions 0,1 are not the two halves of one edge",
        ),
        ([K5_WORD], ((1, 0) + tuple(range(2, 20)),), "passage after position 1 changes vertex"),
        ([K5_WORD], (tuple(range(20)),) * 2, "half-edge 0 appears more than once"),
        (["1 2 1 2", "3 4 5 3 4 5"], (tuple(range(8)),), "circuits do not cover every half-edge"),
        (["1 1"], ((0, 1), (2, 3)), "circuits are not in bijection with components"),
    ],
    ids=["odd-length", "not-mates", "changes-vertex", "repeated", "uncovered", "two-circuits"],
)
def test_check_euler_system_rejects_malformed_systems(words, circuits, message):
    g, es = from_double_occurrence_words(words)
    check_euler_system(es)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_euler_system(EulerSystem(g, circuits))


def test_from_edge_list_rejects_wrong_degree():
    with pytest.raises(ValueError, match="vertex 1 has degree 1"):
        from_edge_list([(1, 2)])
    with pytest.raises(ValueError, match="vertex 1 has degree 6"):
        from_edge_list([(1, 1), (1, 1), (1, 1)])


def test_k5_from_word():
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    assert g.vertices == ("1", "2", "3", "4", "5")
    assert g.num_edges == 10
    assert es.word(0) == tuple("1234513524")
    check_euler_system(es)
    # re-deriving an Euler system gives some valid system on the same graph
    check_euler_system(euler_system(g))


def test_single_word_loops_and_parallels():
    g, es = from_double_occurrence_words(["a a"])
    assert g.num_edges == 2 and g.vertices == ("a",)
    check_euler_system(es)
    g2, es2 = from_double_occurrence_words(["a b a b"])
    assert g2.num_edges == 4
    assert all(set(e) == {"a", "b"} for e in g2.edges())
    check_euler_system(es2)


def test_bad_words_name_the_label():
    with pytest.raises(ValueError, match="label b appears 1"):
        from_double_occurrence_words(["a a b"])
    with pytest.raises(ValueError, match="label a appears 3"):
        from_double_occurrence_words(["a a a b b"])
    with pytest.raises(ValueError, match="label a appears in more than one word"):
        from_double_occurrence_words(["a a", "a b b a"])
    with pytest.raises(ValueError, match="empty word"):
        from_double_occurrence_words(["a a", ""])


def test_components_multi_and_empty():
    two = DOUBLED_TRIANGLE + [(u + 3, v + 3) for u, v in DOUBLED_TRIANGLE]
    g = from_edge_list(two)
    assert components(g) == (("1", "2", "3"), ("4", "5", "6"))
    # vertex indices 1 and 8 share a component, and a set of them iterates 8 first
    loops = [(v, v) for v in (1, 3, 4, 5, 6, 7, 8, 10) for _ in range(2)]
    g = from_edge_list(loops + [(2, 9), (2, 9), (2, 2), (9, 9)])
    assert components(g)[-1] == ("2", "9")
    empty = from_edge_list([])
    assert components(empty) == ()
    assert euler_system(empty).circuits == ()


@given(multigraphs())
def test_euler_system_is_valid_and_deterministic(g):
    es = euler_system(g)
    check_euler_system(es)
    assert es == euler_system(g)


@given(euler_systems())
def test_word_built_systems_validate(pair):
    _, es = pair
    check_euler_system(es)


@given(multigraphs())
def test_components_partition_vertices(g):
    parts = components(g)
    flat = [v for part in parts for v in part]
    assert sorted(flat) == sorted(g.vertices)
    assert len(set(flat)) == len(flat)


@given(multigraphs())
def test_orientation_two_in_two_out(g):
    es = euler_system(g)
    is_out = orient(es)
    assert len(is_out) == g.num_half_edges
    for i in range(len(g.vertices)):
        assert sorted(is_out[h] for h in g.halves[i]) == [False, False, True, True]
    assert directed_euler_system(g, is_out).circuits == es.circuits


def test_reversal_swaps_in_and_out():
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    before = orient(es)
    after = orient(reversed_component(es, 0))
    assert all(a != b for a, b in zip(before, after))
    check_euler_system(reversed_component(es, 0))


def test_cyclic_word_key_rotation_reflection():
    assert cyclic_word_key("1 3 5".split()) == cyclic_word_key("5 1 3".split())
    assert cyclic_word_key("1 2 3".split()) == cyclic_word_key("3 2 1".split())
    assert cyclic_word_key("1 2 3".split()) != cyclic_word_key("1 3 2 2".split())


def test_numeric_labels_sort_numerically():
    g = from_edge_list([(2, 10), (2, 10), (10, 1), (10, 1), (1, 2), (1, 2)])
    assert g.vertices == ("1", "2", "10")
    h = from_edge_list([("b", "a10"), ("b", "a10"), ("a10", "a2"), ("a10", "a2"),
                        ("a2", "b"), ("a2", "b")])
    assert h.vertices == ("a10", "a2", "b")  # lexicographic when not all numeric


def test_labels_equal_as_integers_sort_by_text():
    # from_edge_list passes a set, whose order changes with PYTHONHASHSEED.
    assert sorted_labels(["1", "01"]) == sorted_labels(["01", "1"]) == ("01", "1")
    assert sorted_labels(["0", "-0", "2"]) == sorted_labels(["2", "-0", "0"]) == ("-0", "0", "2")


def test_read_edge_list_text():
    pairs = read_edge_list_text("# k5\n1 2\n\n2 3  # trailing\n")
    assert pairs == [("1", "2"), ("2", "3")]
    with pytest.raises(InputFormatError, match="line 2"):
        read_edge_list_text("1 2\n1 2 3\n")
    # A comment-only line still counts in the numbering, and a trailing comment is no label.
    assert read_edge_list_text("a b # c d\n# only\n  # indented\nb c\n") == [("a", "b"), ("b", "c")]
    with pytest.raises(InputFormatError, match="^line 3: expected two labels, got 3$"):
        read_edge_list_text("# header\na b # c d\na b c # x\n")


def test_read_dow_text():
    assert read_dow_text("1 2 1 2\n\n3 3\n") == [("1", "2", "1", "2"), ("3", "3")]
    with pytest.raises(InputFormatError):
        read_dow_text("\n\n")


@given(st.lists(st.sampled_from("abc"), max_size=9))
def test_cyclic_word_key_is_the_least_rotation_or_reflection(word):
    assert cyclic_word_key(word) == least_by_search(word, 1)


@given(dow_words(), dow_words())
def test_dow_graph_is_the_edge_list_of_consecutive_pairs(first, second):
    words = [first, tuple(str(100 + int(x)) for x in second)]
    pairs = [(w[i], w[(i + 1) % len(w)]) for w in words for i in range(len(w))]
    assert from_double_occurrence_words(words)[0] == from_edge_list(pairs)


@given(multigraphs())
def test_halves_lists_the_half_edges_of_each_vertex_in_order(g):
    for i in range(len(g.vertices)):
        assert g.halves[i] == tuple(
            h for h in range(g.num_half_edges) if g.vertex_of[h] == i
        )


def test_multigraph_rejects_vertex_indices_out_of_range():
    with pytest.raises(ValueError, match="vertex index -1"):
        Multigraph(("a",), (0, 0, 0, -1))
    with pytest.raises(ValueError, match="vertex index 5"):
        Multigraph(("a",), (0, 0, 0, 5))
    assert Multigraph(("a",), (0, 0, 0, 0)).halves[0] == (0, 1, 2, 3)


def test_cut_order_adds_the_fewest_cut_edges_lowest_index_first():
    # A doubled cycle a-c-e-b-d-f-a: every vertex first adds four cut edges, so a leads; then
    # each step has two vertices that add none, and the lower index goes first.
    g = from_edge_list([(u, v) for u, v in zip("acebdf", "cebdfa")] * 2)
    assert g.vertices == ("a", "b", "c", "d", "e", "f")
    assert g.cut_order == (0, 2, 4, 1, 3, 5)
    # Loops are no cut edges: d, with two loops, adds none and leads.
    g = from_edge_list([("a", "b"), ("b", "c"), ("c", "a")] * 2 + [("d", "d")] * 2)
    assert g.cut_order == (3, 0, 1, 2)
    # Edges to joined vertices leave the cut. Once a is joined, c adds two cut edges and
    # removes two, and b adds two: c goes first although both would add two.
    g = from_edge_list([("b", "c"), ("b", "c"), ("a", "c"), ("a", "c"), ("a", "a"), ("b", "b")])
    assert g.cut_order == (0, 2, 1)


@given(multigraphs())
def test_cut_order_is_the_greedy_order_recomputed_at_each_step(g):
    # Each step counts afresh, per unjoined vertex, the cut edges joining it would add (to
    # unjoined vertices) less those it would remove (to joined ones).
    joined: list[int] = []

    def gain(v):
        far = [g.vertex_of[g.mate[h]] for h in g.halves[v]]
        return sum(1 if w not in joined else -1 for w in far if w != v)

    while len(joined) < len(g.vertices):
        left = [v for v in range(len(g.vertices)) if v not in joined]
        joined.append(min(left, key=lambda v: (gain(v), v)))
    assert g.cut_order == tuple(joined)


@given(multigraphs())
def test_the_numbering_fixes_each_mate(g):
    assert all(g.mate[h] == h ^ 1 for h in range(g.num_half_edges))
    assert g.edges() == [
        (g.vertices[g.vertex_of[2 * k]], g.vertices[g.vertex_of[2 * k + 1]])
        for k in range(g.num_edges)
    ]


@given(euler_systems())
def test_visits_are_in_circuit_order_with_their_half_edges(pair):
    g, es = pair
    table = es.visits
    assert len(table) == len(g.vertices)
    for i, ((ci, p, arrive, depart), (cj, q, arrive2, depart2)) in enumerate(table):
        assert ci == cj and p < q
        for pos, a, d in ((p, arrive, depart), (q, arrive2, depart2)):
            assert es.word(ci)[pos] == g.vertices[i]
            assert d == es.circuits[ci][2 * pos]
            assert a == es.circuits[ci][2 * pos - 1]


@given(euler_systems())
def test_visits_are_built_once_as_immutable_tuples(pair):
    g, es = pair
    table = es.visits
    assert es.visits is table
    assert isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)
    assert all(isinstance(visit, tuple) for row in table for visit in row)
    # The cached table is no field: equality and hashing still read the circuits alone.
    fresh = EulerSystem(g, es.circuits)
    assert fresh == es and hash(fresh) == hash(es) and fresh.visits == table
    assert fresh.visits is not table


def _all_tuples(table) -> bool:
    """Every level of a table, down to its ints, is a tuple."""
    return isinstance(table, int) or isinstance(table, tuple) and all(map(_all_tuples, table))


@given(euler_systems())
def test_system_and_graph_tables_are_built_once_as_immutable_tuples(pair):
    # The pairings, the interlace rows and the cut table of cut_order depend on their object
    # alone: a repeat read gives the same table, and an equal fresh object builds an equal
    # one of its own. None is a field, so equality and hashing still read the fields alone.
    g, es = pair

    def fresh_graph():
        return Multigraph(g.vertices, g.vertex_of)

    def fresh_system():
        return EulerSystem(fresh_graph(), es.circuits)

    for owner, fresh, name in (
        (es, fresh_system, "_pairings"),
        (es, fresh_system, "_interlace_rows"),
        (g, fresh_graph, "_cut_table"),
    ):
        table = getattr(owner, name)
        assert getattr(owner, name) is table and _all_tuples(table)
        assert name not in {f.name for f in fields(owner)}
        bare = fresh()
        assert bare == owner and hash(bare) == hash(owner) and name not in vars(bare)
        assert getattr(bare, name) == table and getattr(bare, name) is not table
    assert len(es._pairings) == len(g.vertices) == len(es._interlace_rows)
    assert len(g._cut_table) == len(g.vertices) + 1


def test_four_edges_on_two_vertices_are_read_by_the_numbering():
    g = Multigraph(("a", "b"), (0, 0, 0, 0, 1, 1, 1, 1))
    assert g.edges() == [("a", "a"), ("a", "a"), ("b", "b"), ("b", "b")]
    parallel = Multigraph(("a", "b"), (0, 1, 0, 1, 0, 1, 0, 1))
    assert parallel.edges() == [("a", "b")] * 4
    with pytest.raises(ValueError, match="edge 0 is not directed"):
        directed_euler_system(parallel, (True, True, False, False, False, True, True, False))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: directed_euler_system(from_edge_list([(1, 1), (1, 1)]), (True, False)),
            "orientation table does not cover all half-edges",
        ),
        (  # every edge leaves vertex 1 along its first half
            lambda: directed_euler_system(from_edge_list([(1, 2)] * 4), (True, False) * 4),
            "vertex 1 has 4 outgoing half-edges, expected 2",
        ),
        (lambda: random_regular_multigraph(0, random.Random(0)), "need at least one vertex"),
    ],
    ids=["orientation-length", "out-degree", "no-vertex"],
)
def test_orientations_and_random_graphs_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
