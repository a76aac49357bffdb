"""Interlacement, interlace matrices/graphs, loop decoration, kappa transforms.

Each ``EulerSystem`` keeps its interlace rows, from ``graphs._interleaving_rows``, and
``interlace_graph`` reads them for every loop set; each ``LoopedGraph`` builds ``matrix`` and
``cut_order``, the matrix DP's vertex order, once. ``permutations.cohn_lempel_matrix`` runs the
same chord test: Cohn and Lempel's interleaving matrix is the interlace matrix of a chord diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputFormatError, numbered_lines
from .gf2 import Gf2Matrix, bit_rank, bit_submatrix
from .graphs import EulerSystem, sorted_labels


def _vertex_set(
    vertices: Sequence[str], labels: Iterable[object], what: str = "unknown vertex"
) -> frozenset[str]:
    """The labels as strings, each of which must be one of ``vertices`` (checked in order)."""
    wanted = [str(x) for x in labels]
    for label in wanted:
        if label not in vertices:
            raise ValueError(f"{what} {label!r}")
    return frozenset(wanted)


@dataclass(frozen=True)
class LoopedGraph:
    """Undirected looped graph: irreflexive symmetric adjacency plus a loop set.

    adjacency_rows is bit-packed over the vertex order with zero diagonal;
    ``matrix`` adds the loop indicators on the diagonal.
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
            while row:  # one step per neighbour, not per vertex
                j = row.bit_length() - 1
                if not (self.adjacency_rows[j] >> i) & 1:
                    raise ValueError("adjacency must be symmetric")
                row ^= 1 << j
        unknown = self.loops.difference(self.vertices)
        if unknown:
            raise ValueError(f"loop on unknown vertex {sorted_labels(unknown)[0]!r}")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def matrix(self) -> Gf2Matrix:
        """Adjacency matrix over GF(2) with diagonal = loop indicators, built once per graph."""
        rows = enumerate(zip(self.vertices, self.adjacency_rows))
        return Gf2Matrix(self.vertices, tuple(row | (v in self.loops) << i for i, (v, row) in rows))

    @cached_property
    def cut_order(self) -> tuple[int, ...]:
        """Vertex indices, each next one leaving the least cut rank A[J, not J]; loops unread."""
        rows, order, inside, cut, left = self.adjacency_rows, [], 0, [], list(range(self.n))
        while left:  # cut: A[J, not J]'s nonzero rows. Ties: its fewest entries, then lowest index
            cuts = {v: [r & ~(1 << v) for r in cut] + [rows[v] & ~inside] for v in left}
            v = min(left, key=lambda v: (bit_rank(cuts[v]), sum(map(int.bit_count, cuts[v]))))
            left.remove(v)
            order.append(v)
            cut, inside = [r for r in cuts[v] if r], inside | 1 << v
        return tuple(order)

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
        if unknown := [s for s in (su, sv) if s not in index]:
            raise ValueError(f"unknown vertex {unknown[0]!r}")
        if su == sv:
            raise ValueError(f"loop at {su} must be given through the loop set")
        rows[index[su]] |= 1 << index[sv]
        rows[index[sv]] |= 1 << index[su]
    return LoopedGraph(labels, tuple(rows), _vertex_set(labels, loops, "loop on unknown vertex"))


def interlace_matrix(es: EulerSystem) -> Gf2Matrix:
    """Symmetric zero-diagonal GF(2) matrix of pairwise interlacements."""
    return Gf2Matrix(es.graph.vertices, es._interlace_rows)


def interlace_graph(es: EulerSystem, loop_set: Iterable[str] = ()) -> LoopedGraph:
    """Interlace graph of the Euler system, with loops attached on loop_set."""
    vertices = es.graph.vertices
    return LoopedGraph(vertices, es._interlace_rows, _vertex_set(vertices, loop_set))


def kappa_transform(es: EulerSystem, a: str) -> EulerSystem:
    """Reverse the segment of a's circuit between its two visits to a.

    With the circuit written a C1 a C2 a (first visit = the earlier stored
    position), the result is a C1 a C2' a where C2' is C2 reversed. The
    other components are untouched; the result is a valid Euler system on
    the same multigraph and edge set.
    """
    (ci, p, _, _), (_, q, _, _) = es.visits[es.graph.vertex_index(a)]
    seq = es.circuits[ci]
    rotated = seq[2 * p:] + seq[:2 * p]
    cut = 2 * (q - p)
    new_seq = rotated[:cut] + tuple(reversed(rotated[cut:]))
    return EulerSystem(es.graph, es.circuits[:ci] + (new_seq,) + es.circuits[ci + 1:])


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
    before = interlace_matrix(es).rows
    after = interlace_matrix(kappa_transform(es, a)).rows
    vertices, ai = es.graph.vertices, es.graph.vertex_index(a)
    others, violations = [i for i in range(len(vertices)) if i != ai], []
    for i in others:
        # Pairs (i, j), j > i and j != a, whose toggle is not "both interlaced with a".
        wrong = (before[i] ^ after[i] ^ (before[ai] if before[i] >> ai & 1 else 0)) & ~(1 << ai)
        wrong = wrong >> i + 1 << i + 1
        while wrong:
            j = (wrong & -wrong).bit_length() - 1
            violations.append((vertices[i], vertices[j]))
            wrong ^= 1 << j
    return ToggleReport(a, len(others) * (len(others) - 1) // 2, tuple(violations))


def parse_looped_graph_text(text: str) -> LoopedGraph:
    """Parse the looped-graph file format.

    Line "vertices: a b c" first, an optional "loops: a c" line, then one
    edge "u v" per line; blank lines are ignored.
    """
    vertices: list[str] | None = None
    loops: list[tuple[int, str]] = []  # (line number, label): checked once the vertices are known
    edges: list[tuple[str, str]] = []
    for lineno, line in numbered_lines(text):
        if line.startswith("vertices:"):
            if vertices is not None:
                raise InputFormatError(f"line {lineno}: duplicate vertices line")
            vertices = line[len("vertices:"):].split()
            if len(known := set(vertices)) < len(vertices):
                raise InputFormatError(f"line {lineno}: duplicate vertices")
            continue
        if line.startswith("loops:"):
            loops += [(lineno, label) for label in line[len("loops:"):].split()]
            continue
        if vertices is None:
            raise InputFormatError(f"line {lineno}: vertices line must come first")
        tokens = line.split()
        if len(tokens) != 2:
            raise InputFormatError(f"line {lineno}: expected an edge 'u v'")
        u, v = tokens
        if unknown := [t for t in tokens if t not in known]:
            raise InputFormatError(f"line {lineno}: unknown vertex {unknown[0]!r}")
        if u == v:
            raise InputFormatError(f"line {lineno}: loop at {u} must be given through the loop set")
        edges.append((u, v))
    if vertices is None:
        raise InputFormatError("line 1: missing vertices line")
    for lineno, label in loops:
        if label not in known:
            raise InputFormatError(f"line {lineno}: loop on unknown vertex {label!r}")
    return looped_graph(vertices, edges, [label for _, label in loops])
