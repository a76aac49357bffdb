"""Transition pairings, the circuit tracer, I_P, and the oracle equality."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assignments_for,
    entry_by_label,
    euler_systems,
    interlaced,
    least_by_search,
    multigraphs,
    principal_submatrix,
    set_diagonal,
)
from circuitnull.errors import CapExceededError
from circuitnull.gf2 import nullity
from circuitnull.graphs import (
    cyclic_word_key,
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    reversed_component,
)
from circuitnull.interlace import interlace_matrix, kappa_transform
from circuitnull.partitions import (
    Transition,
    format_assignment,
    induced_assignment,
    parse_assignment,
    partition_matrix,
    predicted_size,
    trace,
    transition_matchings,
    verify_extended_cle,
)

F, C, X = Transition.FOLLOW, Transition.CROSS, Transition.FLIP
K5_WORD = "1 2 3 4 5 1 3 5 2 4"


@pytest.fixture()
def k5():
    return from_double_occurrence_words([K5_WORD])


def word_keys(partition):
    return {cyclic_word_key(w) for w in partition.words}


def follow_map(es):
    """The passage matching the circuits themselves use (arrival <-> departure)."""
    pairing = [0] * es.graph.num_half_edges
    for per_vertex in es.visits:
        for _, _, arrive, depart in per_vertex:
            pairing[arrive] = depart
            pairing[depart] = arrive
    return pairing


def test_follow_everywhere_reproduces_the_circuits(k5):
    g, es = k5
    t = {v: F for v in g.vertices}
    assert transition_matchings(es, t) == follow_map(es)
    partition = trace(g, es, t)
    assert partition.size == len(es.circuits)
    assert word_keys(partition) == {cyclic_word_key(es.word(0))}


def test_flip_on_two_loops_pairs_like_halves():
    g = from_edge_list([(1, 1), (1, 1)])
    es = euler_system(g)
    matching = transition_matchings(es, {"1": X})
    seq = es.circuits[0]
    ins = {seq[1], seq[3]}
    outs = {seq[0], seq[2]}
    assert {matching[h] for h in ins} == ins
    assert {matching[h] for h in outs} == outs


def test_three_choices_give_three_distinct_matchings(k5):
    _, es = k5
    for v in "12345":
        halves = es.graph.halves[es.graph.vertex_index(v)]
        matchings = set()
        for c in (F, C, X):
            m = transition_matchings(es, {u: c if u == v else F for u in "12345"})
            matchings.add(frozenset(frozenset((h, m[h])) for h in halves))
        assert len(matchings) == 3


def test_k5_fixture_partition(k5):
    g, es = k5
    t = {"1": F, "2": X, "3": X, "4": C, "5": C}
    partition = trace(g, es, t)
    assert partition.size == 1
    assert word_keys(partition) == {cyclic_word_key(tuple("1254231534"))}
    m = partition_matrix(es, t)
    assert m.labels == ("2", "3", "4", "5")
    assert m.to_lists() == [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]]
    assert nullity(m) == 0
    assert predicted_size(es, t) == 1


def test_k5_follow_at_3_splits_the_circuit(k5):
    g, es = k5
    t = {"1": F, "2": X, "3": F, "4": C, "5": C}
    partition = trace(g, es, t)
    assert partition.size == 2
    assert word_keys(partition) == {
        cyclic_word_key(tuple("1254234")),
        cyclic_word_key(tuple("135")),
    }
    assert nullity(partition_matrix(es, t)) == 1
    assert predicted_size(es, t) == 2


def test_all_follow_matrix_is_empty(k5):
    _, es = k5
    m = partition_matrix(es, {v: F for v in "12345"})
    assert m.n == 0


def test_doubled_triangle_parallel_pairs():
    # the parallel-pair partition is orientation-inconsistent at every vertex
    g, es = from_double_occurrence_words(["1 2 3 1 2 3"])
    t = {v: X for v in g.vertices}
    partition = trace(g, es, t)
    assert partition.size == 3
    assert word_keys(partition) == {
        cyclic_word_key(("1", "2")),
        cyclic_word_key(("2", "3")),
        cyclic_word_key(("3", "1")),
    }
    m = partition_matrix(es, t)
    assert m.to_lists() == [[1, 1, 1]] * 3
    assert nullity(m) == 2
    assert predicted_size(es, t) == 3


def test_single_vertex_sizes_by_hand():
    g = from_edge_list([(1, 1), (1, 1)])
    es = euler_system(g)
    sizes = {c: trace(g, es, {"1": c}).size for c in (F, C, X)}
    assert sizes == {F: 1, C: 2, X: 1}
    report = verify_extended_cle(g, es)
    assert report.checked == 3 and report.ok


def test_exhaustive_sweeps(k5):
    g, es = k5
    report = verify_extended_cle(g, es)
    assert report.checked == 243 and report.ok
    g2, es2 = from_double_occurrence_words(["1 2 3 1 2 3"])
    report2 = verify_extended_cle(g2, es2)
    assert report2.checked == 27 and report2.ok


def test_sweep_cap_refusal(k5):
    g, es = k5
    with pytest.raises(CapExceededError, match=r"3\^5 = 243"):
        verify_extended_cle(g, es, cap=4)


@given(multigraphs(max_vertices=4), st.data())
def test_oracle_equality_pointwise(g, data):
    es = euler_system(g)
    t = data.draw(assignments_for(g.vertices))
    assert trace(g, es, t).size == predicted_size(es, t)


@given(euler_systems(max_vertices=5), st.data())
def test_oracle_equality_on_word_built_systems(pair, data):
    g, es = pair
    t = data.draw(assignments_for(g.vertices))
    assert trace(g, es, t).size == predicted_size(es, t)


def test_assignments_biject_with_partitions():
    g, es = from_double_occurrence_words(["1 2 3 1 2 3"])
    seen = set()
    for combo in itertools.product((F, C, X), repeat=3):
        t = dict(zip(g.vertices, combo))
        seen.add(trace(g, es, t).circuits)
    assert len(seen) == 27


@given(euler_systems(max_vertices=5), st.data())
def test_orientation_reversal_changes_nothing(pair, data):
    g, es = pair
    t = data.draw(assignments_for(g.vertices))
    i = data.draw(st.integers(0, len(es.circuits) - 1))
    rev = reversed_component(es, i)
    assert trace(g, rev, t) == trace(g, es, t)
    assert partition_matrix(rev, t) == partition_matrix(es, t)


@given(euler_systems(max_vertices=5), st.data())
def test_kappa_invariance_of_flip_assignments(pair, data):
    g, es = pair
    t = data.draw(assignments_for(g.vertices))
    a = data.draw(st.sampled_from(g.vertices))
    t[a] = X
    transformed = kappa_transform(es, a)
    t2 = induced_assignment(transformed, transition_matchings(es, t))
    # the same physical matchings, re-expressed for the transformed system
    assert t2[a] == F
    for v in g.vertices:
        if v == a:
            continue
        if interlaced(es, v, a):
            assert {t[v], t2[v]} in ({F}, {C, X})
        else:
            assert t2[v] == t[v]
    assert trace(g, transformed, t2) == trace(g, es, t)
    assert nullity(partition_matrix(transformed, t2)) == nullity(partition_matrix(es, t))


def test_disjoint_union_additivity():
    words = ["1 2 3 1 2 3", "4 5 4 5"]
    g, es = from_double_occurrence_words(words)
    assert len(es.circuits) == 2
    t = {"1": X, "2": C, "3": F, "4": X, "5": C}
    ga, esa = from_double_occurrence_words([words[0]])
    gb, esb = from_double_occurrence_words([words[1]])
    ta = {k: t[k] for k in "123"}
    tb = {k: t[k] for k in "45"}
    assert (
        trace(g, es, t).size
        == trace(ga, esa, ta).size + trace(gb, esb, tb).size
    )
    m = partition_matrix(es, t)
    for u in "12":
        for v in "45":
            if u in m.labels and v in m.labels:
                assert entry_by_label(m, u, v) == 0


@given(euler_systems(max_vertices=5), st.data())
def test_induced_assignment_round_trip(pair, data):
    g, es = pair
    t = data.draw(assignments_for(g.vertices))
    assert induced_assignment(es, transition_matchings(es, t)) == t


def test_induced_assignment_refuses_a_matching_that_is_no_pairing_at_a_vertex(k5):
    g, es = k5
    matching = transition_matchings(es, {v: F for v in g.vertices})
    a, b, c, d = g.halves[g.vertex_index("3")]
    # a 4-cycle a -> b -> c -> d -> a: no half-edge is matched to the one matched to it
    matching[a], matching[b], matching[c], matching[d] = b, c, d, a
    with pytest.raises(ValueError, match="matching at vertex 3 is not a pairing of its half-edges"):
        induced_assignment(es, matching)
    # vertex 1's first half-edge paired with its mate, at another vertex
    matching = transition_matchings(es, {v: F for v in g.vertices})
    h = g.halves[g.vertex_index("1")][0]
    matching[h], matching[g.mate[h]] = g.mate[h], h
    with pytest.raises(ValueError, match="matching at vertex 1 is not"):
        induced_assignment(es, matching)


def test_trace_validates_assignment(k5):
    g, es = k5
    with pytest.raises(ValueError, match="missing vertex"):
        trace(g, es, {"1": F})
    with pytest.raises(ValueError, match="unknown vertex"):
        trace(g, es, {**{v: F for v in g.vertices}, "9": F})


def test_parse_and_format_assignment(k5):
    g, _ = k5
    t = parse_assignment("1:F 2:X 3:x 4:C 5:c", g.vertices)
    assert t["2"] == X and t["5"] == C
    assert format_assignment(t, g.vertices) == "1:F 2:X 3:X 4:C 5:C"
    with pytest.raises(ValueError, match="missing vertex"):
        parse_assignment("1:F", g.vertices)
    with pytest.raises(ValueError, match="unknown vertex"):
        parse_assignment("9:F", g.vertices)
    with pytest.raises(ValueError, match="repeats"):
        parse_assignment("1:F 1:C 2:F 3:F 4:F 5:F", g.vertices)
    with pytest.raises(ValueError, match="bad transition letter"):
        parse_assignment("1:Z 2:F 3:F 4:F 5:F", g.vertices)


def test_parse_assignment_names_the_first_missing_vertex_in_vertex_order():
    vertices = [str(i) for i in range(1, 13)]
    text = " ".join(f"{v}:F" for v in vertices if v not in ("2", "10"))
    with pytest.raises(ValueError, match=r"^assignment is missing vertex 2$"):
        parse_assignment(text, vertices)


def test_report_json_shape(k5):
    g, es = k5
    report = verify_extended_cle(g, es)
    data = report.to_json_dict()
    assert data == {"checked": 243, "failures": []}


@given(euler_systems(), st.data())
def test_partition_matrix_is_the_principal_submatrix_with_flip_loops(pair, data):
    g, es = pair
    t = data.draw(assignments_for(g.vertices))
    m = principal_submatrix(interlace_matrix(es), [v for v in g.vertices if t[v] != F])
    for v in g.vertices:
        if t[v] == X:
            m = set_diagonal(m, v, 1)
    assert partition_matrix(es, t) == m


@given(euler_systems(), st.data())
def test_traced_circuits_are_least_even_rotations_and_ascend(pair, data):
    # Partitions compare as values only because trace walks the circuits out in this form.
    g, es = pair
    for i in range(len(es.circuits)):
        if data.draw(st.booleans()):
            es = reversed_component(es, i)
    circuits = trace(g, es, data.draw(assignments_for(g.vertices))).circuits
    assert all(c == least_by_search(c, 2) for c in circuits)
    assert list(circuits) == sorted(circuits)


def test_assignments_read_transition_letters_given_as_strings():
    # A letter given as text is read in either case, and one no transition has is refused.
    g, es = from_double_occurrence_words([K5_WORD])
    choices = dict(zip(g.vertices, (F, C, X, C, X)))
    letters = {label: choice.value.lower() for label, choice in choices.items()}
    assert transition_matchings(es, letters) == transition_matchings(es, choices)
    with pytest.raises(ValueError, match=r"^'Q' is not a valid Transition$"):
        transition_matchings(es, {**letters, "2": "q"})
