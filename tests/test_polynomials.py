"""Polynomial arithmetic and the nullity-sum vs circuit-partition identities."""

from __future__ import annotations

import itertools
import random
import re
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import euler_systems, poly_bindings, polys, seeded_looped_system, substitute_by_terms
from circuitnull.errors import CapExceededError
from circuitnull.graphs import (
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    reversed_component,
)
from circuitnull.interlace import interlace_graph, kappa_transform, looped_graph
from circuitnull.partitions import Transition, trace, verify_extended_cle
from circuitnull.polynomials import (
    MultiPoly,
    _courcelle_poly,
    _courcelle_sizes,
    _shifted_one_var,
    _shifted_two_var,
    courcelle,
    courcelle_from_partitions,
    q2_from_partitions,
    q_from_partitions,
    q_nullity,
    q_two_variable,
)

X_MINUS_1 = MultiPoly.make(("x",), {(1,): 1, (0,): -1})
Y_MINUS_1 = MultiPoly.make(("y",), {(1,): 1, (0,): -1})


@st.composite
def looped_graphs(draw, max_n: int = 5):
    n = draw(st.integers(0, max_n))
    labels = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((labels[i], labels[j]))
    loops = [v for v in labels if draw(st.booleans())]
    return looped_graph(labels, edges, loops)


def specialization_bindings(h):
    bindings = {"u": X_MINUS_1, "v": Y_MINUS_1}
    bindings.update({f"x_{v}": 1 for v in h.vertices})
    bindings.update({f"y_{v}": 0 for v in h.vertices})
    return bindings


# ---------------------------------------------------------------- MultiPoly

def test_poly_arithmetic_basics():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert not (x - x).terms
    assert 3 * x - x == 2 * x


def test_poly_rejects_repeated_variable_names():
    x = MultiPoly.variable("x")
    with pytest.raises(ValueError, match="repeated variable"):
        MultiPoly.make(("x", "x"), {(1, 1): 1, (1, 0): 1})
    data = {"vars": ["x", "x"], "terms": [{"exps": [1, 0], "coef": "1"}]}
    with pytest.raises(ValueError, match="repeated variable"):
        MultiPoly.from_json_dict(data)
    assert (x * x + x + x).to_text() == "x^2 + 2*x"


def test_poly_rejects_non_integer_scalars():
    x = MultiPoly.variable("x")
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        (x**2).evaluate({"x": 2.9})
    with pytest.raises(TypeError):
        x.substitute({"x": 2.5})
    assert (x * 3 + True).to_text() == "3*x + 1" and (x**2).evaluate({"x": 3}) == 9


def test_poly_rejects_non_integer_exponents_and_coefficients():
    with pytest.raises(TypeError):
        MultiPoly.constant(1.5)
    with pytest.raises(TypeError):
        MultiPoly.make(("x",), {(1,): 2.0})
    with pytest.raises(TypeError):
        MultiPoly.make(("x",), {(1.0,): 2})
    data = {"vars": ["x"], "terms": [{"exps": [1.5], "coef": "2"}]}
    with pytest.raises(TypeError):
        MultiPoly.from_json_dict(data)
    data["terms"][0]["exps"] = [1]
    assert MultiPoly.from_json_dict(data).to_text() == "2*x"


def test_poly_stores_int_subclass_exponents_as_int():
    p = MultiPoly.make(("x",), {(True,): 1})
    assert p.to_json_dict() == {"vars": ["x"], "terms": [{"exps": [1], "coef": "1"}]}
    assert type(p.terms[0][0][0]) is int
    assert p.to_text() == "x"
    assert p == MultiPoly.variable("x")


def test_poly_equality_ignores_variable_order_and_unused_variables():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    assert x + y == y + x and hash(x + y) == hash(y + x)
    assert x - x == MultiPoly.constant(0) and hash(x - x) == hash(MultiPoly.constant(0))
    assert x**0 == MultiPoly.constant(1)
    assert MultiPoly.make(("x", "y"), {(1, 0): 2}) == 2 * x
    assert len({x * y, y * x, MultiPoly.make(("z", "y", "x"), {(0, 1, 1): 1})}) == 1
    assert x + y != x - y and x != y and x * x != x
    with pytest.raises(ValueError):
        MultiPoly.make(("x", "x"), {(1, 1): 1})
    assert x != "x" and MultiPoly.constant(0) != 0
    # rendering still follows the stored variable order
    assert (x + y).to_text() == "x + y" and (y + x).to_text() == "y + x"


def test_poly_text_rendering():
    p = MultiPoly.make(("x", "y"), {(2, 1): 3, (0, 2): 1, (0, 0): -1, (1, 0): -2})
    assert p.to_text() == "3*x^2*y - 2*x + y^2 - 1"
    assert MultiPoly.constant(0).to_text() == "0"


def test_poly_json_round_trip():
    p = MultiPoly.make(("x", "y"), {(2, 1): 3, (0, 0): -7})
    data = p.to_json_dict()
    assert data["terms"][0]["coef"] == "3"
    assert MultiPoly.from_json_dict(data) == p


def test_substitute_and_evaluate():
    x = MultiPoly.variable("x")
    y = MultiPoly.variable("y")
    p = x * x + y
    assert p.substitute({"x": 2}) == y + 4
    assert p.evaluate({"x": 3, "y": 1}) == 10
    with pytest.raises(ValueError, match="unbound variable"):
        p.evaluate({"x": 3})
    assert p.substitute({"x": y}) == y * y + y
    assert p.substitute({"x": 5}).evaluate({"y": 2}) == 27
    # A polynomial is not a value, although substitute accepts one; names p lacks are ignored.
    with pytest.raises(TypeError):
        p.evaluate({"x": y, "y": 1})
    assert p.evaluate({"x": 3, "y": 1, "z": 2.5}) == 10
    assert (p - p).evaluate({"x": 3, "y": 1}) == 0 and MultiPoly.constant(-4).evaluate({}) == -4


@settings(max_examples=300)
@given(polys(), poly_bindings())
def test_substitute_matches_term_by_term_expansion(p, bindings):
    # to_json_dict carries the variable order as well as the terms.
    assert p.substitute(bindings).to_json_dict() == substitute_by_terms(p, bindings).to_json_dict()


@pytest.mark.parametrize(
    "bindings",
    [
        {"y": 0},  # one name bound to 0: its exponents are read as bare ints
        {"y": 0, "z": 5},
        {"x": 0, "y": 0, "z": 0},  # every name bound to 0
        {"w": 0, "x": 2},  # 0 bound to a name the polynomial lacks
        {"z": MultiPoly.constant(0)},  # a constant-0 polynomial binding
        {"z": MultiPoly.constant(0, ("t",)), "x": MultiPoly.variable("t") + 1},
        {"x": 0, "y": 0},  # one exponent left to read, an unbound one
        {"x": 0, "z": 0, "y": MultiPoly.variable("x") - 1},  # one left, a bound one
    ],
)
def test_substitute_drops_the_terms_on_names_bound_to_zero(bindings):
    p = MultiPoly.make(
        ("x", "y", "z"),
        {(2, 0, 1): 3, (0, 1, 0): -2, (1, 1, 1): 5, (0, 0, 0): 7, (0, 0, 2): 1, (3, 2, 0): -1},
    )
    assert p.substitute(bindings).to_json_dict() == substitute_by_terms(p, bindings).to_json_dict()


def test_substitute_variable_order():
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    assert (x * y).substitute({"x": y, "y": x}).to_text() == "y*x"
    p = MultiPoly.make(("z", "x", "y"), {(1, 1, 1): 1})
    q = p.substitute({"x": z + y, "y": 2, "t": x})
    assert q.variables == ("z", "y") and q.to_text() == "2*z^2 + 2*z*y"


@given(looped_graphs(max_n=4), st.integers(-3, 3), st.integers(-3, 3))
def test_substitute_commutes_with_evaluate(h, a, b):
    q = q_two_variable(h)
    assert q.substitute({"x": a}).evaluate({"y": b}) == q.evaluate({"x": a, "y": b})


@given(
    st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), st.integers(-9, 9)),
    st.dictionaries(st.integers(0, 9), st.integers(-9, 9)),
)
def test_shifted_expansions_match_polynomial_arithmetic(pairs, singles):
    # The reference multiplies out c * (x-1)^i * (y-1)^j with MultiPoly's own operators;
    # _shifted_two_var reads its counts by (|S|, nu) = (i + j, j); _shifted_one_var sums its
    # counts over |S|, so each count of nu = k is split between |S| = k and k + 1.
    expected = MultiPoly.constant(0)
    for (i, j), c in pairs.items():
        expected = expected + c * X_MINUS_1**i * Y_MINUS_1**j
    assert _shifted_two_var({(i + j, j): c for (i, j), c in pairs.items()}) == expected
    expected = MultiPoly.constant(0)
    for k, c in singles.items():
        expected = expected + c * Y_MINUS_1**k
    split = {(k + s, k): (c - 1, 1)[s] for k, c in singles.items() for s in (0, 1)}
    assert _shifted_one_var(split) == expected


@st.composite
def shifted_histograms(draw):
    """(|S|, nu) -> count, nu <= |S|: noise plus a block that sums to c * x^m * y^l.

    The block is c * sum C(m, a) C(l, b) (x-1)^a (y-1)^b, so its expansion cancels to one
    monomial; on the y side alone it cancels to c * 2^m * y^l.
    """
    key = st.integers(0, 6).flatmap(lambda s: st.tuples(st.just(s), st.integers(0, s)))
    counts = dict(draw(st.dictionaries(key, st.integers(-9, 9), max_size=5)))
    m, l, c = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(-3, 3))
    for a in range(m + 1):
        for b in range(l + 1):
            counts[a + b, b] = counts.get((a + b, b), 0) + c * comb(m, a) * comb(l, b)
    return counts


def shifted_by_terms(counts):
    """make of every c * (y-1)^j, and of every c * (x-1)^(s-j) * (y-1)^j, term by term."""
    one: dict[tuple[int, ...], int] = {}
    two: dict[tuple[int, ...], int] = {}
    for (s, j), c in counts.items():
        for b in range(j + 1):
            y = c * comb(j, b) * (-1) ** (j - b)
            one[b,] = one.get((b,), 0) + y
            for a in range(s - j + 1):
                two[a, b] = two.get((a, b), 0) + y * comb(s - j, a) * (-1) ** (s - j - a)
    return MultiPoly.make(("y",), one), MultiPoly.make(("x", "y"), two)


@given(shifted_histograms())
def test_shifted_expansions_give_make_terms_exactly(counts):
    one, two = shifted_by_terms(counts)
    assert _shifted_one_var(counts).variables == ("y",)
    assert _shifted_two_var(counts).variables == ("x", "y")
    assert _shifted_one_var(counts).terms == one.terms
    assert _shifted_two_var(counts).terms == two.terms


def test_shifted_expansions_drop_what_cancels():
    # (x-1) + 1 = x, and (y-1)^2 + 2(y-1) + 1 = y^2.
    assert _shifted_two_var({(1, 0): 1, (0, 0): 1}).terms == (((1, 0), 1),)
    assert _shifted_one_var({(2, 2): 1, (1, 1): 2, (0, 0): 1}).terms == (((2,), 1),)
    assert _shifted_two_var({(3, 1): 0}).terms == () == _shifted_one_var({}).terms


@given(looped_graphs(max_n=4))
def test_q_nullity_at_one_counts_nonsingular_subsets(h):
    # (y-1)^nu vanishes at y=1 unless nu = 0
    from itertools import combinations

    from circuitnull.gf2 import nullity as mat_nullity

    count = 0
    for size in range(h.n + 1):
        for subset in combinations(h.vertices, size):
            if mat_nullity(h.induced(subset).matrix) == 0:
                count += 1
    assert q_nullity(h).evaluate({"y": 1}) == count


# --------------------------------------------------------- definition route

def test_q_nullity_single_vertices():
    assert q_nullity(looped_graph(["a"])).to_text() == "y"
    assert q_nullity(looped_graph(["a"], loops=["a"])).to_text() == "2"


def test_q_nullity_edgeless_is_power_of_y():
    h = looped_graph(["1", "2", "3"])
    assert q_nullity(h) == MultiPoly.variable("y") ** 3
    assert q_nullity(h).evaluate({"y": 2}) == 8


def test_q_two_variable_single_vertices():
    assert q_two_variable(looped_graph(["a"])).to_text() == "y"
    assert q_two_variable(looped_graph(["a"], loops=["a"])).to_text() == "x"


@given(looped_graphs())
def test_q_at_x_equals_2_is_q_nullity(h):
    assert q_two_variable(h).substitute({"x": 2}) == q_nullity(h)


@given(looped_graphs(max_n=3), looped_graphs(max_n=3))
def test_interlace_polynomials_multiply_over_disjoint_unions(h1, h2):
    def edges(h, prefix):
        n = h.n
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if h.adjacency_rows[i] >> j & 1]
        return [(prefix + h.vertices[i], prefix + h.vertices[j]) for i, j in pairs]

    union = looped_graph(
        list(h1.vertices) + [f"b{v}" for v in h2.vertices],
        edges(h1, "") + edges(h2, "b"),
        list(h1.loops) + [f"b{v}" for v in h2.loops],
    )
    assert q_nullity(union) == q_nullity(h1) * q_nullity(h2)
    assert q_two_variable(union) == q_two_variable(h1) * q_two_variable(h2)
    assert courcelle(union).substitute(specialization_bindings(union)) == q_two_variable(union)


# ---------------------------------------------------------- partition route

@given(euler_systems(max_vertices=5), st.data())
def test_q_from_partitions_matches_nullity_sum(pair, data):
    g, es = pair
    loops = data.draw(st.sets(st.sampled_from(g.vertices)))
    h = interlace_graph(es, loops)
    assert q_from_partitions(g, es, loops) == q_nullity(h)
    assert q2_from_partitions(g, es, loops) == q_two_variable(h)


def test_q_from_partitions_two_loop_vertex():
    g = from_edge_list([(1, 1), (1, 1)])
    es = euler_system(g)
    assert q_from_partitions(g, es, {"1"}).to_text() == "2"
    assert q_from_partitions(g, es).to_text() == "y"


def test_loop_free_case_equals_directed_generating_function():
    # with no loops, only orientation-consistent partitions are summed
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    assert q_from_partitions(g, es) == q_nullity(interlace_graph(es))


def test_partition_route_respects_cap():
    # q and q2 cap the live transfer-matrix states, checked after each vertex: on K5 the
    # third vertex leaves 6. Courcelle's sweep caps the vertices.
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    states = "refusing to keep 6 states at cut width 6 after 3 of 5 vertices (cap is 4 states;"
    sweep = "refusing to sweep 3^5 = 243 subset pairs (cap is 4 vertices;"
    for evaluator, refused in (
        (q_from_partitions, states),
        (q2_from_partitions, states),
        (courcelle_from_partitions, sweep),
    ):
        with pytest.raises(CapExceededError) as refusal:
            evaluator(g, es, cap=4)
        assert str(refusal.value) == f"{refused} pass a larger cap to force it)"
        # the loop set is checked first; a CapExceededError is no ValueError and would escape
        with pytest.raises(ValueError, match=r"^unknown vertex '9'$"):
            evaluator(g, es, loop_set={"9"}, cap=0)


def test_partition_route_cap_admits_exactly_the_peak():
    # K5's peak is 6 live states: a cap of 6 admits it, and 5 refuses it.
    g, es = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    h = interlace_graph(es)
    assert q_from_partitions(g, es, cap=6) == q_nullity(h)
    assert q2_from_partitions(g, es, cap=6) == q_two_variable(h)
    with pytest.raises(CapExceededError, match=r"^refusing to keep 6 states .*\(cap is 5 states;"):
        q_from_partitions(g, es, cap=5)


def test_partition_route_refuses_within_two_states_of_the_cap():
    # The cap is checked after each source state, and each state has two passages, so a
    # refusal holds at most cap + 2 new states instead of the whole step (16, 48 and 88 here).
    g, es, loops = seeded_looped_system(18, 18)
    for cap in (10, 30, 50):
        with pytest.raises(CapExceededError) as refusal:
            q_from_partitions(g, es, loops, cap=cap)
        held = int(str(refusal.value).split()[3])
        assert cap < held <= cap + 2


def test_partition_routes_reject_a_foreign_euler_system():
    g, _ = from_double_occurrence_words(["1 2 3 4 5 1 3 5 2 4"])
    _, other = from_double_occurrence_words(["1 2 1 2", "3 4 5 3 4 5"])
    foreign = "Euler system belongs to a different multigraph"
    for evaluator in (q_from_partitions, q2_from_partitions, courcelle_from_partitions):
        for kwargs in ({}, {"cap": 0}, {"loop_set": {"9"}}):
            with pytest.raises(ValueError, match=foreign):
                evaluator(g, other, **kwargs)
    # other has the same vertex labels, so only the ownership check can refuse these
    for kwargs in ({}, {"cap": 0}):
        with pytest.raises(ValueError, match=foreign):
            verify_extended_cle(g, other, **kwargs)
    with pytest.raises(ValueError, match=foreign):
        trace(g, other, {v: Transition.FOLLOW for v in g.vertices})


def test_partition_route_passes_the_old_vertex_cap():
    # A seeded connected system at n = 18, past the old 2^14 subset cap of the trace route:
    # its default cap counts DP states, and the matrix route needs its cap raised.
    g, es, loops = seeded_looped_system(18, 18)
    h = interlace_graph(es, loops)
    assert q_from_partitions(g, es, loops) == q_nullity(h, cap=18)
    assert q2_from_partitions(g, es, loops) == q_two_variable(h, cap=18)


def test_matrix_route_respects_cap():
    h = looped_graph([str(i) for i in range(15)])
    for evaluator in (q_nullity, q_two_variable):
        with pytest.raises(CapExceededError, match=r"2\^15 = 32768 subsets \(cap is 14 "):
            evaluator(h)
        with pytest.raises(CapExceededError, match=r"2\^15 = 32768 subsets \(cap is 3 "):
            evaluator(h, cap=3)
    assert q_nullity(looped_graph(["a", "b"]), cap=2).to_text() == "y^2"


def test_q2_from_partitions_collapses_at_x_equals_2():
    g, es = from_double_occurrence_words(["1 2 1 3 2 3"])
    for loops in (set(), {"1"}, {"1", "2", "3"}):
        q2 = q2_from_partitions(g, es, loops)
        assert q2.substitute({"x": 2}) == q_from_partitions(g, es, loops)


@given(polys(), st.data())
def test_terms_come_sorted_whatever_the_insertion_order(p, data):
    # coefs keeps no order, so nothing that can be read may depend on the order in which the
    # terms went in: through make, through +, or straight into the constructor.
    items = data.draw(st.permutations(list(p.coefs.items())))
    zero = MultiPoly.constant(0, p.variables)
    built = (
        MultiPoly.make(p.variables, dict(items)),
        sum((MultiPoly.make(p.variables, dict([item])) for item in items), zero),
        MultiPoly(p.variables, dict(items)),
    )
    for q in built:
        assert q.terms == tuple(sorted(items, reverse=True)) == p.terms
        assert q.to_text() == p.to_text() and q.to_json_dict() == p.to_json_dict()
        assert q == p and hash(q) == hash(p)


def test_evaluators_and_substitute_leave_terms_unbuilt():
    # Only the canonical outputs (terms, to_text, to_json_dict) sort, so neither building a
    # polynomial nor specialising or comparing one does: C(H) at the courcelle workload's
    # size, its specialisation to q, and q_N and q by each route.
    g, es, loops = seeded_looped_system(7, 7)
    h = interlace_graph(es, loops)
    c, c_traced = courcelle(h), courcelle_from_partitions(g, es, loops)
    q, q2 = c.substitute(specialization_bindings(h)), q_two_variable(h)
    q2_traced = q2_from_partitions(g, es, loops)
    qn, qn_traced = q_nullity(h), q_from_partitions(g, es, loops)
    assert c == c_traced and q == q2 == q2_traced and qn == qn_traced
    assert q.substitute({"x": 2}) == qn and q.evaluate({"x": 2, "y": 2}) == 2**7
    assert not any("terms" in vars(p) for p in (c, c_traced, q, q2, q2_traced, qn, qn_traced))
    assert q.to_text() and "terms" in vars(q)


# ----------------------------------------------------------------- courcelle

def test_courcelle_empty_graph():
    assert courcelle(looped_graph([])).to_text() == "1"


def test_courcelle_single_unlooped_vertex():
    c = courcelle(looped_graph(["a"]))
    assert c.as_dict() == {
        (0, 0, 0, 0): 1,   # A=B=empty
        (0, 1, 1, 0): 1,   # x_a * v
        (1, 0, 0, 1): 1,   # y_a * u
    }
    assert c.variables == ("u", "v", "x_a", "y_a")


@given(st.integers(0, 5), st.data())
def test_courcelle_terms_come_in_make_order(n, data):
    # _courcelle_poly builds its terms without make, for any in-bound nullities.
    vertices = [str(i + 1) for i in range(n)]
    sizes = [sum(map(bool, state)) for state in itertools.product(range(3), repeat=n)]
    raw = data.draw(st.lists(st.integers(0, n), min_size=len(sizes), max_size=len(sizes)))
    nus = [r % (size + 1) for r, size in zip(raw, sizes)]
    poly = _courcelle_poly(vertices, nus)
    assert poly.variables == ("u", "v", *(f"x_{v}" for v in vertices), *(f"y_{v}" for v in vertices))
    assert poly.coefs == MultiPoly.make(poly.variables, poly.coefs).coefs
    assert poly.terms == MultiPoly.make(poly.variables, dict(poly.terms)).terms


def _ranked_courcelle_order(n):
    """Each state's rank in product order: bit 2n-1-v for v in A and n-1-v for v in B."""
    ranks = [0]  # state 3i + d extends state i by digit d
    for v in range(n):
        ranks = [r | b for r in ranks for b in (0, 1 << 2 * n - 1 - v, 1 << n - 1 - v)]
    return ranks


@pytest.mark.parametrize("n", range(11))
def test_courcelle_order_follows_its_definition(n):
    # |A u B| per state in product order is the popcount of the state's rank.
    assert _courcelle_sizes(n) == list(map(int.bit_count, _ranked_courcelle_order(n)))


@pytest.mark.parametrize("n", [7, 8, 9])
def test_courcelle_at_the_bench_and_cap_sizes(n):
    # Hypothesis draws graphs of at most five vertices; these run the sizes of the courcelle
    # workload (n = 7) and of DEFAULT_PAIR_CAP (n = 9), loops included.
    g, es, loops = seeded_looped_system(n, n)
    h = interlace_graph(es, loops)
    c = courcelle(h)
    assert c == courcelle_from_partitions(g, es, loops)
    assert c.terms == MultiPoly.make(c.variables, dict(c.terms)).terms
    assert c.substitute(specialization_bindings(h)) == q_two_variable(h)


def test_courcelle_cap():
    h = looped_graph([str(i) for i in range(10)])
    with pytest.raises(CapExceededError, match=r"3\^10"):
        courcelle(h)


@given(looped_graphs(max_n=4))
def test_courcelle_specializes_to_q(h):
    assert courcelle(h).substitute(specialization_bindings(h)) == q_two_variable(h)


@given(euler_systems(max_vertices=4), st.data())
def test_courcelle_from_partitions_matches_definition(pair, data):
    g, es = pair
    loops = data.draw(st.sets(st.sampled_from(g.vertices)))
    assert courcelle_from_partitions(g, es, loops) == courcelle(interlace_graph(es, loops))


def test_courcelle_doubled_triangle_terms():
    g, es = from_double_occurrence_words(["1 2 3 1 2 3"])
    c = courcelle_from_partitions(g, es)
    d = c.as_dict()
    # vars: u v x_1 x_2 x_3 y_1 y_2 y_3
    assert d[(0, 0, 0, 0, 0, 0, 0, 0)] == 1        # A = B = empty
    assert d[(1, 2, 0, 0, 0, 1, 1, 1)] == 1        # parallel pairs: nu = 2
    assert d[(2, 1, 1, 1, 1, 0, 0, 0)] == 1        # all-Cross: nu = 1
    assert c == courcelle(interlace_graph(es))


# -------------------------------------------------- Euler-system independence

def directed_partition_polynomial(g, is_out):
    """Independent oracle: enumerate every in->out bijection of the digraph
    and count the cycles directly. Shares nothing with the trace machinery.
    """
    import itertools
    from math import comb

    from circuitnull.graphs import components

    per_vertex = []
    for vi in range(len(g.vertices)):
        halves = g.halves[vi]
        ins = [h for h in halves if not is_out[h]]
        outs = [h for h in halves if is_out[h]]
        per_vertex.append((ins, outs))
    c_g = len(components(g))
    counts: dict[int, int] = {}
    for choice in itertools.product((0, 1), repeat=len(per_vertex)):
        follower = {}
        for (ins, outs), c in zip(per_vertex, choice):
            follower[ins[0]] = outs[c]
            follower[ins[1]] = outs[1 - c]
        used = set()
        circuits = 0
        for h in range(g.num_half_edges):
            if not is_out[h] or h in used:
                continue
            circuits += 1
            cur = h
            while cur not in used:
                used.add(cur)
                cur = follower[g.mate[cur]]
        counts[circuits] = counts.get(circuits, 0) + 1
    terms: dict[tuple[int, ...], int] = {}
    for p, cnt in counts.items():
        k = p - c_g
        for j in range(k + 1):
            terms[(j,)] = terms.get((j,), 0) + cnt * comb(k, j) * (-1) ** (k - j)
    return MultiPoly.make(("y",), terms)


@given(euler_systems(max_vertices=5))
def test_loop_free_route_matches_direct_enumeration(pair):
    from circuitnull.graphs import orient

    g, es = pair
    assert q_from_partitions(g, es) == directed_partition_polynomial(g, orient(es))


def test_loop_free_polynomial_is_orientation_invariant():
    # invariant of the induced digraph: reversal and same-orientation
    # alternatives keep it; segment-permuting double transforms keep it
    from circuitnull.graphs import orient
    from conftest import interlaced, random_directed_euler_system

    rng = random.Random(20240811)
    for _ in range(10):
        n = rng.randint(1, 5)
        letters = [str(i + 1) for i in range(n)] * 2
        rng.shuffle(letters)
        g, es = from_double_occurrence_words([letters])
        base = q_from_partitions(g, es)
        assert q_from_partitions(g, reversed_component(es, 0)) == base
        for _ in range(3):
            alt = random_directed_euler_system(g, orient(es), rng)
            assert q_from_partitions(g, alt) == base
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


def test_single_kappa_can_change_the_loop_free_polynomial():
    # counterexample kept on purpose: one kappa transform reverses a segment,
    # so the induced orientation changes and the directed generating function
    # may change with it; the independent enumeration agrees on both sides
    from circuitnull.graphs import orient

    word = "2 6 2 5 1 3 5 1 3 4 6 4"
    g, es = from_double_occurrence_words([word])
    transformed = kappa_transform(es, "1")
    before = q_from_partitions(g, es)
    after = q_from_partitions(g, transformed)
    assert before != after
    assert before == directed_partition_polynomial(g, orient(es))
    assert after == directed_partition_polynomial(g, orient(transformed))


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: MultiPoly.make(("x", "y"), {(1,): 1}),
            "exponent vector (1,) does not match 2 variables",
        ),
        (lambda: MultiPoly.make(("x",), {(-1,): 1}), "negative exponent in (-1,)"),
        (lambda: MultiPoly.variable("x") ** -1, "negative power"),
    ],
    ids=["exponent-length", "negative-exponent", "negative-power"],
)
def test_polynomial_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_an_integer_minus_a_polynomial():
    assert 1 - MultiPoly.variable("x") == MultiPoly.make(("x",), {(0,): 1, (1,): -1})
