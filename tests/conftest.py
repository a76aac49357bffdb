"""Shared hypothesis strategies for random words, graphs, and assignments, and test oracles."""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from circuitnull.gf2 import Gf2Matrix, bit_submatrix
from circuitnull.graphs import (
    directed_euler_system,
    euler_system,
    from_double_occurrence_words,
    from_edge_list,
    random_regular_multigraph,
)
from circuitnull.interlace import interlace_matrix
from circuitnull.partitions import Transition
from circuitnull.polynomials import MultiPoly

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def dow_words(draw, min_vertices: int = 1, max_vertices: int = 6):
    """A single double occurrence word on labels 1..n, n drawn small."""
    n = draw(st.integers(min_vertices, max_vertices))
    letters = [str(i + 1) for i in range(n)] * 2
    return tuple(draw(st.permutations(letters)))


@st.composite
def euler_systems(draw, max_vertices: int = 6, max_components: int = 2):
    """(Multigraph, EulerSystem) built from 1-2 disjoint random words."""
    ncomp = draw(st.integers(1, max_components))
    words = []
    base = 0
    for _ in range(ncomp):
        budget = max_vertices - base
        if budget < 1:
            break
        n = draw(st.integers(1, budget))
        letters = [str(base + i + 1) for i in range(n)] * 2
        words.append(tuple(draw(st.permutations(letters))))
        base += n
    return from_double_occurrence_words(words)


@st.composite
def multigraphs(draw, max_vertices: int = 5):
    """Configuration-model 4-regular multigraph (loops/parallels/disconnection)."""
    n = draw(st.integers(1, max_vertices))
    slots = draw(st.permutations(list(range(4 * n))))
    pairs = [
        (str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1))
        for i in range(0, 4 * n, 2)
    ]
    return from_edge_list(pairs)


def seeded_looped_system(n: int, seed: int):
    """A connected configuration-model system on n vertices and a loop set, fixed by the seed."""
    rng = random.Random(seed)
    while True:
        g = random_regular_multigraph(n, rng)
        es = euler_system(g)
        if len(es.circuits) == 1:
            return g, es, frozenset(v for v in g.vertices if rng.random() < 0.5)


def plane_medial_system(points, edges):
    """The medial graph of a straight-line plane drawing, with its anticlockwise Euler system.

    ``points`` maps each vertex of G to its coordinates and ``edges`` lists G's edges as vertex
    pairs. Each vertex's darts sorted by angle give its rotation, and each cyclically
    consecutive pair of darts (d, d') gives one medial edge from edge(d) to edge(d'): a leaf
    of G gives a loop, and a vertex of degree 2 a parallel pair. Medial edge k is half-edges
    2k and 2k + 1, so departing along the even ones is a 2-in, 2-out orientation.
    """
    darts: dict = {v: [] for v in points}
    for k, (u, v) in enumerate(edges):
        darts[u].append((v, k))
        darts[v].append((u, k))
    pairs = []
    for v, (x, y) in points.items():
        angles = sorted((math.atan2(points[w][1] - y, points[w][0] - x), k) for w, k in darts[v])
        rotation = [k for _, k in angles]
        pairs += [(str(k), str(rotation[(i + 1) % len(rotation)])) for i, k in enumerate(rotation)]
    g = from_edge_list(pairs)
    return g, directed_euler_system(g, [h % 2 == 0 for h in range(g.num_half_edges)])


def least_by_search(seq, step):
    """Least sequence reachable from seq by rotating by ``step`` and reversing."""
    start = tuple(seq)
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for nxt in (s[step:] + s[:step], s[::-1]):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return min(seen)


def interlaced(es, u: str, v: str) -> bool:
    """True iff the occurrences of u and v alternate u,v,u,v along one circuit."""
    if u == v:
        raise ValueError("interlacement needs two distinct vertices")
    for label in (u, v):
        if label not in es.graph.vertices:
            raise ValueError(f"unknown vertex {label!r}")
    return bool(entry_by_label(interlace_matrix(es), u, v))


def entry_by_label(m: Gf2Matrix, u: str, v: str) -> int:
    """Entry of m at row label u and column label v."""
    return m.entry(m.label_index(u), m.label_index(v))


def principal_submatrix(m: Gf2Matrix, keep) -> Gf2Matrix:
    """Submatrix on the given labels, preserving their order in m."""
    wanted = set(keep)
    for label in sorted(wanted):
        if label not in m.labels:
            raise ValueError(f"unknown label {label!r}")
    indices = [i for i, label in enumerate(m.labels) if label in wanted]
    return Gf2Matrix(
        tuple(m.labels[i] for i in indices),
        tuple(bit_submatrix(m.rows, indices)),
    )


def set_diagonal(m: Gf2Matrix, label: str, value: int) -> Gf2Matrix:
    """Copy of m with one diagonal entry replaced."""
    if value not in (0, 1):
        raise ValueError(f"diagonal value must be 0 or 1, got {value!r}")
    i = m.label_index(label)
    rows = list(m.rows)
    if value:
        rows[i] |= 1 << i
    else:
        rows[i] &= ~(1 << i)
    return Gf2Matrix(m.labels, tuple(rows))


@st.composite
def assignments_for(draw, vertices):
    choices = st.sampled_from((Transition.FOLLOW, Transition.CROSS, Transition.FLIP))
    return {v: draw(choices) for v in vertices}


def random_directed_euler_system(g, is_out, rng):
    """A random Euler system consistent with a fixed orientation.

    Same digraph as the orientation, different circuit: Hierholzer with
    random tie-breaking instead of the library's smallest-id rule.
    """
    from circuitnull.graphs import EulerSystem

    used = [False] * g.num_half_edges
    outs_at = {}
    for h in range(g.num_half_edges):
        if is_out[h]:
            outs_at.setdefault(g.vertex_of[h], []).append(h)
    circuits = []
    for start in range(g.num_half_edges):
        if used[start] or not is_out[start]:
            continue
        used[start] = used[g.mate[start]] = True
        stack = [start]
        departures = []
        while stack:
            v = g.vertex_of[g.mate[stack[-1]]]
            options = [h for h in outs_at.get(v, ()) if not used[h]]
            if not options:
                departures.append(stack.pop())
                continue
            h = rng.choice(options)
            used[h] = used[g.mate[h]] = True
            stack.append(h)
        departures.reverse()
        seq = []
        for d in departures:
            seq.extend((d, g.mate[d]))
        circuits.append(tuple(seq))
    return EulerSystem(g, tuple(circuits))


def substitute_by_terms(p, bindings):
    """Reference for ``MultiPoly.substitute``: expand term by term with ``*`` and ``+``."""
    resolved = {name: MultiPoly._coerce(value) for name, value in bindings.items()}
    order = [v for v in p.variables if v not in resolved]
    for v in p.variables:
        if v in resolved:
            for name in resolved[v].variables:
                if name not in order:
                    order.append(name)
    result = MultiPoly.constant(0, order)
    for exps, coef in p.terms:
        term = MultiPoly.constant(coef, order)
        for name, e in zip(p.variables, exps):
            if not e:
                continue
            factor = resolved.get(name, MultiPoly.variable(name))
            term = term * factor**e
        result = result + term
    return result


POLY_NAMES = ("x", "y", "z", "w")


@st.composite
def polys(draw, max_vars: int = 4, max_terms: int = 6, max_exp: int = 3):
    """A polynomial over a few names from POLY_NAMES, in a drawn order.

    It may be zero, constant, or carry names that no term uses.
    """
    names = draw(st.permutations(POLY_NAMES))[: draw(st.integers(0, max_vars))]
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms))
    return MultiPoly.make(names, terms)


def poly_bindings():
    """Bindings over POLY_NAMES and one name no polynomial uses.

    Values are integer constants (0 and negatives included), single
    variables (so swaps such as x -> y, y -> x arise) and small polynomials
    over the same names (so a value can mention an unbound name).
    """
    values = st.one_of(
        st.integers(-3, 3),
        st.sampled_from(POLY_NAMES).map(MultiPoly.variable),
        polys(max_vars=2, max_terms=3, max_exp=2),
    )
    return st.dictionaries(st.sampled_from(POLY_NAMES + ("t",)), values, max_size=5)
