"""Interlacement, interlace matrices/graphs, loop decoration, kappa transforms.

``_interleaving_rows`` is the one chord-interleaving test. ``interlace_matrix``
uses it, and so does ``permutations.cohn_lempel_matrix``: Cohn and Lempel's
interleaving matrix is the interlace matrix of a chord diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputFormatError
from .gf2 import Gf2Matrix, bit_submatrix
from .graphs import EulerSystem


def _vertex_set(vertices: Sequence[str], labels: Iterable[object]) -> frozenset[str]:
    """The labels as strings, each of which must be one of ``vertices``."""
    wanted = frozenset(str(x) for x in labels)
    for label in wanted:
        if label not in vertices:
            raise ValueError(f"unknown vertex {label!r}")
    return wanted


@dataclass(frozen=True)
class LoopedGraph:
    """Undirected looped graph: irreflexive symmetric adjacency plus a loop set.

    adjacency_rows is bit-packed over the vertex order with zero diagonal;
    matrix() adds the loop indicators on the diagonal.
    """

    vertices: tuple[str, ...]
    adjacency_rows: tuple[int, ...]
    loops: frozenset[str]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertices")
        if len(self.adjacency_rows) != n:
            raise ValueError("adjacency rows do not match vertices")
        for i, row in enumerate(self.adjacency_rows):
            if row < 0 or row >> n:
                raise ValueError(f"adjacency row {i} has bits outside the graph")
            if (row >> i) & 1:
                raise ValueError(f"adjacency must be irreflexive (vertex {self.vertices[i]})")
            for j in range(n):
                if (row >> j) & 1 and not (self.adjacency_rows[j] >> i) & 1:
                    raise ValueError("adjacency must be symmetric")
        for label in self.loops:
            if label not in self.vertices:
                raise ValueError(f"loop on unknown vertex {label!r}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def matrix(self) -> Gf2Matrix:
        """Adjacency matrix over GF(2) with diagonal = loop indicators."""
        rows = list(self.adjacency_rows)
        for i, label in enumerate(self.vertices):
            if label in self.loops:
                rows[i] |= 1 << i
        return Gf2Matrix(self.vertices, tuple(rows))

    def induced(self, keep: Iterable[str]) -> "LoopedGraph":
        """Induced subgraph on the given vertices, order preserved."""
        wanted = _vertex_set(self.vertices, keep)
        idx = [i for i, label in enumerate(self.vertices) if label in wanted]
        rows = tuple(bit_submatrix(self.adjacency_rows, idx))
        kept_labels = tuple(self.vertices[i] for i in idx)
        return LoopedGraph(kept_labels, rows, self.loops & set(kept_labels))

    def toggle_loops(self, toggle: Iterable[str]) -> "LoopedGraph":
        """Flip the loop status of the given vertices."""
        t = _vertex_set(self.vertices, toggle)
        return LoopedGraph(self.vertices, self.adjacency_rows, self.loops ^ t)


def looped_graph(
    vertices: Sequence[object],
    edges: Iterable[tuple[object, object]] = (),
    loops: Iterable[object] = (),
) -> LoopedGraph:
    """Build a LoopedGraph from vertex labels, undirected edges, and a loop set."""
    labels = tuple(str(v) for v in vertices)
    index = {label: i for i, label in enumerate(labels)}
    rows = [0] * len(labels)
    for u, v in edges:
        su, sv = str(u), str(v)
        if su not in index:
            raise ValueError(f"unknown vertex {su!r}")
        if sv not in index:
            raise ValueError(f"unknown vertex {sv!r}")
        if su == sv:
            raise ValueError(f"loop at {su} must be given through the loop set")
        rows[index[su]] |= 1 << index[sv]
        rows[index[sv]] |= 1 << index[su]
    loop_labels = frozenset(str(x) for x in loops)
    return LoopedGraph(labels, tuple(rows), loop_labels)


def _interleaving_rows(chords: Sequence[tuple[int, int]]) -> list[int]:
    """Rows of chords (a, b), a < b, no shared ends: i meets j iff one end of j is inside i."""
    rows = [0] * len(chords)
    for i, (a, b) in enumerate(chords):
        for j in range(i + 1, len(chords)):
            c, d = chords[j]
            if (a < c < b) != (a < d < b):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def interlace_matrix(es: EulerSystem) -> Gf2Matrix:
    """Symmetric zero-diagonal GF(2) matrix of pairwise interlacements."""
    occ = es.occurrences()
    # Circuits laid end to end: chords of different circuits never interleave.
    starts = list(itertools.accumulate((len(c) for c in es.circuits), initial=0))
    chords = [(starts[ci] + p, starts[ci] + q) for ci, p, q in map(occ.get, es.graph.vertices)]
    return Gf2Matrix(es.graph.vertices, tuple(_interleaving_rows(chords)))


def interlace_graph(es: EulerSystem, loop_set: Iterable[str] = ()) -> LoopedGraph:
    """Interlace graph of the Euler system, with loops attached on loop_set."""
    loops = _vertex_set(es.graph.vertices, loop_set)
    m = interlace_matrix(es)
    return LoopedGraph(m.labels, m.rows, loops)


def kappa_transform(es: EulerSystem, a: str) -> EulerSystem:
    """Reverse the segment of a's circuit between its two visits to a.

    With the circuit written a C1 a C2 a (first visit = the earlier stored
    position), the result is a C1 a C2' a where C2' is C2 reversed. The
    other components are untouched; the result is a valid Euler system on
    the same multigraph and edge set.
    """
    occ = es.occurrences()
    if a not in occ:
        raise ValueError(f"unknown vertex {a!r}")
    ci, p, q = occ[a]
    seq = es.circuits[ci]
    rotated = seq[2 * p:] + seq[:2 * p]
    cut = 2 * (q - p)
    new_seq = rotated[:cut] + tuple(reversed(rotated[cut:]))
    circuits = list(es.circuits)
    circuits[ci] = new_seq
    return EulerSystem(es.graph, tuple(circuits))


@dataclass(frozen=True)
class ToggleReport:
    """Outcome of checking the interlacement toggle law for one kappa transform.

    A pair (v, w) avoiding a must toggle its interlacement exactly when both
    v and w are interlaced with a; ``violations`` lists any pair that broke
    the rule (expected: none).
    """

    vertex: str
    pairs_checked: int
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def interlacement_toggle_check(es: EulerSystem, a: str) -> ToggleReport:
    """Compare all pairwise interlacements before and after kappa at a."""
    before = interlace_matrix(es)
    after = interlace_matrix(kappa_transform(es, a))
    pairs = list(itertools.combinations([v for v in es.graph.vertices if v != a], 2))
    ai = before.label_index(a)
    violations = []
    for u, w in pairs:
        i, j = before.label_index(u), before.label_index(w)
        toggled = before.entry(i, j) != after.entry(i, j)
        should = bool(before.entry(i, ai)) and bool(before.entry(j, ai))
        if toggled != should:
            violations.append((u, w))
    return ToggleReport(a, len(pairs), tuple(violations))


def parse_looped_graph_text(text: str) -> LoopedGraph:
    """Parse the looped-graph file format.

    Line "vertices: a b c" first, an optional "loops: a c" line, then one
    edge "u v" per line; blank lines are ignored.
    """
    vertices: list[str] | None = None
    loops: list[str] = []
    edges: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise InputFormatError(f"line {lineno}: duplicate vertices line")
            vertices = line[len("vertices:"):].split()
            continue
        if line.startswith("loops:"):
            loops.extend(line[len("loops:"):].split())
            continue
        if vertices is None:
            raise InputFormatError(f"line {lineno}: vertices line must come first")
        tokens = line.split()
        if len(tokens) != 2:
            raise InputFormatError(f"line {lineno}: expected an edge 'u v'")
        edges.append((tokens[0], tokens[1]))
    if vertices is None:
        raise InputFormatError("line 1: missing vertices line")
    try:
        return looped_graph(vertices, edges, loops)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None
