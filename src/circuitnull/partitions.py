"""Transition systems at vertices, circuit tracing, I_P, and the exhaustive verifier.

A transition system picks one of the three perfect matchings of the four
half-edges at each vertex, classified relative to a reference Euler system C:

  Follow -- the matching C itself uses (arrival paired with C's departure);
  Cross  -- the other matching pairing arrivals with departures;
  Flip   -- the matching pairing the two arrivals together and the two
            departures together (orientation-inconsistent).

Tracing glues half-edges by these matchings and by edge mates; the closed
curves that result are the circuit partition. A Flip passage sends the walk
backward along edge orientations, which the half-edge representation makes
automatic. The extended Cohn-Lempel equality predicts the number of curves
as nu(I_P) + c(G).

This module owns the per-vertex alphabet of every sweep, read two ways, and its guards.
``_row_options`` gives the rows of I_P (Follow e_i, Cross A_i, Flip A_i ^ e_i) to
``partition_matrix`` and ``_matrix_nullities``; ``_passages`` (Follow, loop-consistent, other)
checks the Euler system and the loop set for ``_traced_nullities``, whose engine counts from
-c(G) over the graph's cut table. Each checks the cap and its sweep's length and gives nu per
state, in product order over a vertex order (``verify_extended_cle`` gives both ``g.cut_order``).
``_traced_histogram`` (the trace DP, capped by live states) and ``_matrix_histogram`` (the 2^n
sweep up to SUBSET_SWEEP_LIMIT vertices, the DP in ``h.cut_order`` above; capped by vertices)
check that the (|S|, nu) counts sum to 2^n. Engines are read at call time, so a test can swap one.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import InputFormatError, check_cap
from .gf2 import Gf2Matrix, bit_rank, bit_submatrix
from .graphs import EulerSystem, Multigraph, _cuts
from .interlace import LoopedGraph, _vertex_set
from .sweep import circuit_counts, circuit_histogram, nullities, nullity_histogram

DEFAULT_SWEEP_CAP = 14
SUBSET_SWEEP_LIMIT = 10  # q_N and q sweep the 2^n subsets up to this n, and run the matrix DP above


class Transition(str, Enum):
    FOLLOW = "F"
    CROSS = "C"
    FLIP = "X"


TransitionAssignment = Mapping[str, Transition]

_TRANSITIONS = (Transition.FOLLOW, Transition.CROSS, Transition.FLIP)


@dataclass(frozen=True)
class CircuitPartition:
    """Edge-disjoint closed curves covering the graph, as half-edge cycles.

    ``trace`` starts each circuit at its least half-edge, and the circuits ascend by it.
    So each circuit is the least of its even rotations and their reversals, and
    partitions compare as plain values.
    """

    graph: Multigraph
    circuits: tuple[tuple[int, ...], ...]

    # Circuits are half-edge cycles as in an Euler system, so its word readers apply.
    word = EulerSystem.word
    words = EulerSystem.words

    @property
    def size(self) -> int:
        return len(self.circuits)


def _row_options(rows: Sequence[int]) -> list[tuple[int, int, int]]:
    """Per vertex: off is the unit row e_i, then A_i, then A_i with its loop toggled."""
    return [(1 << i, row, row ^ 1 << i) for i, row in enumerate(rows)]


def _check_owner(g: Multigraph, es: EulerSystem) -> None:
    if es.graph != g:
        raise ValueError("Euler system belongs to a different multigraph")


def _whole(route: array | dict, total: int, letters: int, n: int, what: str) -> array | dict:
    """The engine's route, not copied, once its total is checked (a wrong total is a bug)."""
    if total != letters**n:
        raise RuntimeError(f"internal error: {total} values for {letters}^{n} {what}")
    return route


def _matrix_nullities(
    rows: Sequence[int], letters: int, cap: int, what: str, order: Sequence[int] = ()
) -> array:
    """nu per state over the first ``letters`` row options per vertex in ``order`` (or as given)."""
    check_cap(len(rows), cap, letters, what)
    options = _row_options(rows)
    route = nullities([options[v][:letters] for v in order or range(len(rows))])
    return _whole(route, len(route), letters, len(rows), what)


def _passages(g: Multigraph, es: EulerSystem, loop_set: Iterable[str], letters: int) -> list:
    """Per vertex: Follow, the loop-consistent passage, the other; checks es, then the loops."""
    _check_owner(g, es)
    loops = _vertex_set(g.vertices, loop_set)
    pairings = zip(g.vertices, es._pairings)
    return [((f, x, c) if v in loops else (f, c, x))[:letters] for v, (f, c, x) in pairings]


def _traced_nullities(
    g: Multigraph, es: EulerSystem, loop_set: Iterable[str], letters: int, cap: int, what: str,
    order: Sequence[int] = (),
) -> array:
    """|P| - c(G) per state in ``order`` (or as given), after _passages' checks, cap and length."""
    options = _passages(g, es, loop_set, letters)
    check_cap(len(options), cap, letters, what)
    cuts = g._cut_table if order else _cuts(g.mate, g.halves)  # order is g.cut_order or none
    route = circuit_counts(g.mate, [options[v] for v in order] or options, -len(es.circuits), cuts)
    return _whole(route, len(route), letters, len(options), what)


def _traced_histogram(g: Multigraph, es: EulerSystem, loop_set: Iterable[str], cap: int) -> dict:
    """(|S|, |P_S| - c(G)) -> count, after the checks of ``_passages``, within ``cap`` DP states."""
    options = list(map(_passages(g, es, loop_set, 2).__getitem__, g.cut_order))
    counts = circuit_histogram(g.mate, options, -len(es.circuits), cap, g._cut_table)
    return _whole(counts, sum(counts.values()), 2, len(options), "subsets")


def _matrix_histogram(h: LoopedGraph, cap: int) -> dict:
    """(|S|, nu(A[S])) -> count: the 2^n sweep up to SUBSET_SWEEP_LIMIT vertices, the DP above."""
    rows, n = h.matrix.rows, h.n
    if n <= SUBSET_SWEEP_LIMIT:
        nus = _matrix_nullities(rows, 2, cap, "subsets")
        return Counter(zip(map(int.bit_count, range(1 << n)), nus))
    check_cap(n, cap, 2, "subsets")  # before h.cut_order; no DP step holds over 2^n states
    counts = nullity_histogram(rows, h.cut_order, 1 << n)
    return _whole(counts, sum(counts.values()), 2, n, "subsets")


def _choice_row(vertices: Sequence[str], t: TransitionAssignment) -> list[int]:
    """Validate totality and return each choice's index in _TRANSITIONS, in vertex order."""
    if unknown := set(t) - set(vertices):
        raise ValueError(f"assignment names unknown vertex {sorted(unknown)[0]!r}")
    row = []
    for label in vertices:
        if label not in t:
            raise ValueError(f"assignment is missing vertex {label}")
        choice = t[label]
        if not isinstance(choice, Transition):
            choice = Transition(str(choice).upper())
        row.append(_TRANSITIONS.index(choice))
    return row


def transition_matchings(es: EulerSystem, t: TransitionAssignment) -> list[int]:
    """Full passage involution over half-edges for an assignment."""
    inv = [0] * es.graph.num_half_edges
    for options, choice in zip(es._pairings, _choice_row(es.graph.vertices, t)):
        for h, k in options[choice]:
            inv[h] = k
            inv[k] = h
    return inv


def _walk_circuits(mate: Sequence[int], inv: Sequence[int]) -> list[tuple[int, ...]]:
    """Closed curves of the union of the edge matching and a passage matching.

    The sequence alternates edge steps (h -> mate) and passages (arrival -> inv). Each
    new curve starts at the smallest unused half-edge, so at its own least one, and the
    curves ascend by it. No other even rotation starts that low, nor any even rotation of
    the reversal (its even places hold the mates): each curve is already the least of them.
    """
    total = len(mate)
    used = [False] * total
    circuits = []
    for start in range(total):
        if used[start]:
            continue
        seq = []
        h = start
        while not used[h]:
            used[h] = True
            a = mate[h]
            used[a] = True
            seq.extend((h, a))
            h = inv[a]
        circuits.append(tuple(seq))
    return circuits


def trace(g: Multigraph, es: EulerSystem, t: TransitionAssignment) -> CircuitPartition:
    """Walk out the circuit partition an assignment determines.

    This is the independent, brute-force side of the equality: it never
    consults the interlace matrix.
    """
    _check_owner(g, es)
    return CircuitPartition(g, tuple(_walk_circuits(g.mate, transition_matchings(es, t))))


def partition_matrix(es: EulerSystem, t: TransitionAssignment) -> Gf2Matrix:
    """I_P: drop Follow rows/columns, keep Cross, set the diagonal on Flip."""
    choices = _choice_row(es.graph.vertices, t)
    rows = [options[c] for options, c in zip(_row_options(es._interlace_rows), choices)]
    keep = [i for i, c in enumerate(choices) if c]  # index 0 is Follow
    labels = tuple(es.graph.vertices[i] for i in keep)
    return Gf2Matrix(labels, tuple(bit_submatrix(rows, keep)))


def predicted_size(es: EulerSystem, t: TransitionAssignment) -> int:
    """nu(I_P) + c(G), the matrix side of the extended Cohn-Lempel equality."""
    choices = _choice_row(es.graph.vertices, t)
    keep = sum(1 << i for i, c in enumerate(choices) if c)  # masked: rank ignores column order
    rows = zip(_row_options(es._interlace_rows), choices)
    return keep.bit_count() - bit_rank([opts[c] & keep for opts, c in rows]) + len(es.circuits)


def induced_assignment(
    es: EulerSystem, matchings: Sequence[int] | Mapping[int, int]
) -> dict[str, Transition]:
    """Classify an arbitrary passage matching relative to an Euler system.

    The matching at every vertex must be one of the three pairings of its
    four half-edges; the result re-expresses the same circuit partition as
    a transition assignment for es.
    """
    result: dict[str, Transition] = {}
    for label, options in zip(es.graph.vertices, es._pairings):
        for choice, pairs in zip(_TRANSITIONS, options):
            if all(matchings[h] == k and matchings[k] == h for h, k in pairs):
                result[label] = choice
                break
        else:
            raise ValueError(f"matching at vertex {label} is not a pairing of its half-edges")
    return result


def parse_assignment(text: str, vertices: Sequence[str]) -> dict[str, Transition]:
    """Parse "v:F" / "v:C" / "v:X" tokens into a total assignment."""
    known = set(vertices)
    result: dict[str, Transition] = {}
    for token in text.split():
        if ":" not in token:
            raise InputFormatError(f"bad assignment token {token!r} (expected label:F|C|X)")
        label, _, letter = token.rpartition(":")
        if label not in known:
            raise InputFormatError(f"assignment names unknown vertex {label!r}")
        if label in result:
            raise InputFormatError(f"assignment repeats vertex {label}")
        try:
            result[label] = Transition(letter.upper())
        except ValueError:
            raise InputFormatError(f"bad transition letter {letter!r} for vertex {label}") from None
    if missing := [label for label in vertices if label not in result]:
        raise InputFormatError(f"assignment is missing vertex {missing[0]}")
    return result


def format_assignment(t: TransitionAssignment, vertices: Sequence[str]) -> str:
    row = _choice_row(vertices, t)
    return " ".join(f"{label}:{_TRANSITIONS[i].value}" for label, i in zip(vertices, row))


@dataclass(frozen=True)
class SweepFailure:
    assignment: str
    traced: int
    predicted: int


@dataclass(frozen=True)
class SweepReport:
    """Result of exhaustively checking |P| = nu(I_P) + c(G)."""

    checked: int
    failures: tuple[SweepFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {"checked": self.checked, "failures": list(map(asdict, self.failures))}


def verify_extended_cle(
    g: Multigraph, es: EulerSystem, cap: int = DEFAULT_SWEEP_CAP
) -> SweepReport:
    """Trace every one of the 3^|V| assignments and compare with the prediction.

    Both routes sweep the vertices in ``g.cut_order``, the greedy low-cut order their memos
    favour; it changes only the cost. Failures come in product order over ``g.vertices``.
    """
    n, ncomp = len(g.vertices), len(es.circuits)
    order = g.cut_order if n <= cap else ()  # not found past the cap: the builders refuse first
    traced = _traced_nullities(g, es, (), 3, cap, "assignments", order)
    nus = _matrix_nullities(es._interlace_rows, 3, cap, "assignments", order)
    # The sweeps are compared whole; only if they differ is each state read, at its place in them.
    places = [3 ** (n - 1 - order.index(v)) for v in range(n)]
    wrong = [i for i, (a, b) in enumerate(zip(traced, nus)) if a != b] if traced != nus else []
    failures = []
    for digits, i in sorted(([i // place % 3 for place in places], i) for i in wrong):
        combo = dict(zip(g.vertices, map(_TRANSITIONS.__getitem__, digits)))
        assignment = format_assignment(combo, g.vertices)
        failures.append(SweepFailure(assignment, traced[i] + ncomp, nus[i] + ncomp))
    return SweepReport(3 ** n, tuple(failures))
