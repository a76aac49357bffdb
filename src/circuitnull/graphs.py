"""Half-edge 4-regular multigraphs, connected components, and Euler systems.

Half-edges are dense integer ids assigned in input order by ``from_edge_list``: edge k owns
half-edges 2k (at its first endpoint) and 2k+1 (at its second), which alone fixes the mate of
h as h ^ 1; a double occurrence word is the edge list of its cyclically consecutive pairs. A
``Multigraph`` keeps its half-edges per vertex, mates, ``cut_order`` and cut table, an
``EulerSystem`` its visits, pairings and interlace rows: each built once, for every loop set.
``_cuts`` builds every cut table the trace engines read. All tie-breaking below (Hierholzer
extension, component order, circuit starts) takes the smallest available half-edge id, so
construction is bit-for-bit reproducible. ``cyclic_word_key`` is the canonical form of a cyclic
word; a traced half-edge cycle needs none, as it starts at its least half-edge (``partitions``).
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputFormatError, numbered_lines

_NUMERIC = re.compile(r"-?\d+")


def sorted_labels(labels: Iterable[str]) -> tuple[str, ...]:
    """Sort labels numerically (ties, such as "1" and "01", by text) if all are integers."""
    items = list(labels)
    if all(_NUMERIC.fullmatch(s) for s in items):
        return tuple(sorted(items, key=lambda s: (int(s), s)))
    return tuple(sorted(items))


@dataclass(frozen=True)
class Multigraph:
    """Undirected 4-regular multigraph; loops and parallel edges allowed.

    vertices  -- ordered labels (stable matrix row order)
    vertex_of -- half-edge id -> index into vertices; edge k is half-edges 2k and 2k+1
    """

    vertices: tuple[str, ...]
    vertex_of: tuple[int, ...]
    # half-edge id -> the other half of the same edge (h ^ 1); derived
    mate: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # vertex index -> its four half-edge ids, ascending; derived from vertex_of
    halves: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mate", tuple(h ^ 1 for h in range(len(self.vertex_of))))
        n = len(self.vertices)
        halves: list[list[int]] = [[] for _ in range(n)]
        for h, v in enumerate(self.vertex_of):
            if not 0 <= v < n:
                raise ValueError(f"half-edge {h} is at vertex index {v}, outside 0..{n - 1}")
            halves[v].append(h)
        for label, at in zip(self.vertices, halves):
            if len(at) != 4:
                raise ValueError(f"not 4-regular: vertex {label} has degree {len(at)}")
        object.__setattr__(self, "halves", tuple(map(tuple, halves)))

    @property
    def num_half_edges(self) -> int:
        return len(self.vertex_of)

    @property
    def num_edges(self) -> int:
        return len(self.vertex_of) // 2

    def vertex_index(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise ValueError(f"unknown vertex {label!r}") from None

    def edges(self) -> list[tuple[str, str]]:
        """Edges as label pairs in half-edge order (2k, 2k+1)."""
        return [
            (self.vertices[self.vertex_of[2 * k]], self.vertices[self.vertex_of[2 * k + 1]])
            for k in range(self.num_edges)
        ]

    @cached_property
    def cut_order(self) -> tuple[int, ...]:
        """Vertex indices, each next the one adding the fewest cut edges, lowest index first."""
        # A vertex's gain: the cut edges it would add less those it would remove; loops never count.
        gain = [sum(self.vertex_of[h ^ 1] != v for h in hs) for v, hs in enumerate(self.halves)]
        left, order = list(range(len(self.vertices))), []
        while left:
            v = min(left, key=gain.__getitem__)
            left.remove(v)
            order.append(v)
            for h in self.halves[v]:
                gain[self.vertex_of[h ^ 1]] -= 2  # on a loop, v's own gain, no longer read
        return tuple(order)

    @cached_property
    def _cut_table(self) -> tuple[tuple[int, ...], ...]:
        """``_cuts`` for ``cut_order``: the table of every sweep in that order."""
        return _cuts(self.mate, [self.halves[v] for v in self.cut_order])


def _cuts(mate: Sequence[int], halves: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Per depth d = 0..n, the half-edges at vertices d.. (``halves``) whose mates are at 0..d-1."""
    joined, cuts = set(), [()]
    for here in halves:
        joined.update(here)
        cuts.append(tuple(h for h in cuts[-1] + tuple(mate[k] for k in here) if h not in joined))
    return tuple(cuts)


@dataclass(frozen=True)
class EulerSystem:
    """One oriented Euler circuit per component, as cyclic half-edge sequences.

    Each circuit alternates edge traversals and vertex passages: position
    2i holds the departing half-edge of the i-th edge step, position 2i+1
    its mate (the arrival), and the pair (2i+1, 2i+2) sits at one vertex.
    """

    graph: Multigraph
    circuits: tuple[tuple[int, ...], ...]

    def word(self, i: int) -> tuple[str, ...]:
        """Double occurrence word of circuit i (vertex visited at each step)."""
        seq = self.circuits[i]
        return tuple(
            self.graph.vertices[self.graph.vertex_of[seq[j]]] for j in range(0, len(seq), 2)
        )

    @property
    def words(self) -> tuple[tuple[str, ...], ...]:
        return tuple(self.word(i) for i in range(len(self.circuits)))

    @cached_property
    def visits(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """Per vertex, its two visits in order: (circuit, word position, arrival, departure)."""
        result: list[list[tuple[int, int, int, int]]] = [[] for _ in self.graph.vertices]
        for ci, seq in enumerate(self.circuits):
            for j in range(0, len(seq), 2):
                depart = seq[j]
                arrive = seq[j - 1]  # wraps to the end for j == 0
                result[self.graph.vertex_of[depart]].append((ci, j // 2, arrive, depart))
        return tuple(map(tuple, result))

    @cached_property
    def _pairings(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """Per vertex, the (Follow, Cross, Flip) pairings of its half-edges (see ``partitions``)."""
        out = []
        for (_, _, i1, o1), (_, _, i2, o2) in self.visits:  # arrivals i1 < i2 lead to o1, o2
            if i2 < i1:
                i1, o1, i2, o2 = i2, o2, i1, o1
            out.append((((i1, o1), (i2, o2)), ((i1, o2), (i2, o1)), ((i1, i2), (o1, o2))))
        return tuple(out)

    @cached_property
    def _interlace_rows(self) -> tuple[int, ...]:
        """``interlace_matrix``: circuits laid end to end, so chords of two circuits never meet."""
        starts = list(itertools.accumulate((len(c) // 2 for c in self.circuits), initial=0))
        chords = [(starts[ci] + p, starts[ci] + q) for (ci, p, _, _), (_, q, _, _) in self.visits]
        return tuple(_interleaving_rows(chords))


def _interleaving_rows(chords: Sequence[tuple[int, int]]) -> list[int]:
    """Rows of k chords (a, b), a < b, whose ends are 0..2k-1: i meets j iff j has one end in i.

    One pass keeps the parity p of the ends passed, 1 << j per end of chord j: only open chords.
    Chord i's row holds p from just after its first end; XORing p in at its second leaves the
    ends in between, where a chord with both cancels out.
    """
    at = [None] * (2 * len(chords))  # chord j's first end holds j, its second ~j
    for j, (a, b) in enumerate(chords):
        at[a], at[b] = j, ~j
    rows, p = [0] * len(chords), 0
    for j in at:
        if j >= 0:
            rows[j] = p = p ^ 1 << j
        else:
            rows[~j] ^= p
            p ^= 1 << ~j
    return rows


def from_edge_list(pairs: Iterable[tuple[object, object]]) -> Multigraph:
    """Build a 4-regular multigraph from (u, v) label pairs.

    Repeated pairs create parallel edges and (v, v) creates a loop; every
    vertex must end up with degree exactly 4.
    """
    edge_list = [(str(u), str(v)) for u, v in pairs]
    labels = sorted_labels({u for e in edge_list for u in e})
    index = {label: i for i, label in enumerate(labels)}
    return Multigraph(labels, tuple(index[label] for edge in edge_list for label in edge))


def _word_label_error(words: Sequence[Sequence[str]]) -> tuple[int, str] | None:
    """The index of the first word breaking the label rules, with why; None if none does.

    Every word must be nonempty, and every label must appear exactly twice,
    within a single word.
    """
    seen: dict[str, int] = {}
    for wi, word in enumerate(words):
        if not word:
            return wi, "empty word"
        for label in word:
            if seen.setdefault(label, wi) != wi:
                return wi, f"label {label} appears in more than one word"
    for label, c in Counter(label for word in words for label in word).items():
        if c != 2:
            return seen[label], f"label {label} appears {c} times, expected exactly 2"
    return None


def from_double_occurrence_words(
    words: Iterable[str | Sequence[object]],
) -> tuple[Multigraph, EulerSystem]:
    """Build the multigraph and Euler system read off double occurrence words.

    Each word is one component's Euler circuit as a cyclic vertex sequence;
    consecutive entries (cyclically) are the traversed edges. Every label
    must appear exactly twice, within a single word.
    """
    normalized: list[tuple[str, ...]] = []
    for w in words:
        if isinstance(w, str):
            normalized.append(tuple(w.split()))
        else:
            normalized.append(tuple(str(x) for x in w))
    error = _word_label_error(normalized)
    if error is not None:
        raise ValueError(error[1])
    # Edges are numbered in input order, so each word's circuit is a run of half-edge ids.
    graph = from_edge_list(pair for w in normalized for pair in zip(w, w[1:] + w[:1]))
    starts = list(itertools.accumulate((2 * len(w) for w in normalized), initial=0))
    circuits = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
    return graph, EulerSystem(graph, circuits)


def components(g: Multigraph) -> tuple[tuple[str, ...], ...]:
    """Partition of the vertices into connected components, in order of smallest half-edge."""
    # Hierholzer's circuits cover one component each, in that order.
    return tuple(
        tuple(g.vertices[i] for i in sorted({g.vertex_of[h] for h in seq}))
        for seq in _euler_circuits(g, None)
    )


def _euler_circuits(g: Multigraph, allowed: Sequence[bool] | None) -> tuple[tuple[int, ...], ...]:
    """One Euler circuit per component, as alternating half-edge sequences (Hierholzer).

    Each circuit starts at its component's smallest half-edge that may depart, so
    components come in order of smallest id. ``allowed`` restricts departures (used for
    directed traversal); edges are consumed in mate-pairs so each is walked exactly once.
    """
    used = [False] * g.num_half_edges
    circuits = []
    for start in range(g.num_half_edges):
        if used[start] or (allowed is not None and not allowed[start]):
            continue
        used[start] = used[g.mate[start]] = True
        stack = [start]
        departures: list[int] = []
        while stack:
            for h in g.halves[g.vertex_of[g.mate[stack[-1]]]]:  # the arrival vertex
                if not used[h] and (allowed is None or allowed[h]):
                    used[h] = used[g.mate[h]] = True
                    stack.append(h)
                    break
            else:
                departures.append(stack.pop())
        departures.reverse()
        seq: list[int] = []
        for d in departures:
            seq.extend((d, g.mate[d]))
        circuits.append(tuple(seq))
    return tuple(circuits)


def euler_system(g: Multigraph) -> EulerSystem:
    """One Euler circuit per component (Hierholzer, smallest-id extension)."""
    return EulerSystem(g, _euler_circuits(g, None))


def directed_euler_system(g: Multigraph, is_out: Sequence[bool]) -> EulerSystem:
    """Euler system that departs only along half-edges marked outgoing.

    Requires a 2-in, 2-out orientation: exactly one half of every edge and
    exactly two of the four half-edges at every vertex are outgoing.
    """
    if len(is_out) != g.num_half_edges:
        raise ValueError("orientation table does not cover all half-edges")
    for h in range(0, g.num_half_edges, 2):
        if is_out[h] == is_out[g.mate[h]]:
            raise ValueError(f"edge {h // 2} is not directed (both halves alike)")
    for i, label in enumerate(g.vertices):
        outs = sum(1 for h in g.halves[i] if is_out[h])
        if outs != 2:
            raise ValueError(f"vertex {label} has {outs} outgoing half-edges, expected 2")
    return EulerSystem(g, _euler_circuits(g, is_out))


def orient(es: EulerSystem) -> tuple[bool, ...]:
    """Per half-edge, whether the traversal direction leaves along it (``is_out``)."""
    is_out = [False] * es.graph.num_half_edges
    for seq in es.circuits:
        for j in range(0, len(seq), 2):
            is_out[seq[j]] = True
    return tuple(is_out)


def reversed_component(es: EulerSystem, i: int) -> EulerSystem:
    """Same Euler system with circuit i traversed in the opposite direction."""
    circuits = list(es.circuits)
    circuits[i] = tuple(reversed(circuits[i]))
    return EulerSystem(es.graph, tuple(circuits))


def check_euler_system(es: EulerSystem) -> None:
    """Raise ValueError unless es satisfies every Euler-system invariant."""
    g = es.graph
    seen: set[int] = set()
    for seq in es.circuits:
        if not seq or len(seq) % 2:
            raise ValueError("circuit length must be positive and even")
        k = len(seq)
        for j in range(0, k, 2):
            d, a = seq[j], seq[j + 1]
            if g.mate[d] != a:
                raise ValueError(f"positions {j},{j + 1} are not the two halves of one edge")
            if g.vertex_of[a] != g.vertex_of[seq[(j + 2) % k]]:
                raise ValueError(f"passage after position {j + 1} changes vertex")
        for h in seq:
            if h in seen:
                raise ValueError(f"half-edge {h} appears more than once")
            seen.add(h)
    if len(seen) != g.num_half_edges:
        raise ValueError("circuits do not cover every half-edge")
    # Each of Hierholzer's circuits starts at its component's smallest half-edge.
    expected = [seq[0] for seq in _euler_circuits(g, None)]
    if sorted(min(seq) for seq in es.circuits) != expected:
        raise ValueError("circuits are not in bijection with components")


def random_regular_multigraph(n_vertices: int, rng: random.Random) -> Multigraph:
    """Configuration-model 4-regular multigraph on labels 1..n.

    A uniformly random perfect matching on the 4n half-edge slots; loops,
    parallels, and disconnected outcomes all arise naturally.
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    slots = list(range(4 * n_vertices))
    rng.shuffle(slots)
    pairs = [(str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1)) for i in range(0, len(slots), 2)]
    return from_edge_list(pairs)


def cyclic_word_key(word: Sequence[str]) -> tuple[str, ...]:
    """Canonical form of a cyclic word up to rotation and reflection: the least of them."""
    s = tuple(word)
    return min((d[r:] + d[:r] for d in (s, s[::-1]) for r in range(len(s))), default=s)


def read_edge_list_text(text: str) -> list[tuple[str, str]]:
    """Parse an edge-list file: one "u v" per line, blanks and # comments ignored."""
    pairs = []
    for lineno, line in numbered_lines(text, comment="#"):
        tokens = line.split()
        if len(tokens) != 2:
            raise InputFormatError(f"line {lineno}: expected two labels, got {len(tokens)}")
        pairs.append((tokens[0], tokens[1]))
    return pairs


def read_dow_text(text: str) -> list[tuple[str, ...]]:
    """Parse a DOW file: one component word per line, labels whitespace-separated.

    The label rules of ``from_double_occurrence_words`` are checked here too,
    so a broken word is reported with its line number.
    """
    lines = dict(numbered_lines(text))
    if not lines:
        raise InputFormatError("line 1: no words found")
    words = [tuple(line.split()) for line in lines.values()]
    error = _word_label_error(words)
    if error is not None:
        wi, message = error
        raise InputFormatError(f"line {list(lines)[wi]}: {message}")
    return words
