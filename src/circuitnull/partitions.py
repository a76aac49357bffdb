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

This module owns the per-vertex alphabet of every exhaustive sweep, read two
ways, and every guard of a sweep. ``_row_options`` gives the rows of I_P
(Follow e_i, Cross A_i, Flip A_i ^ e_i) to ``partition_matrix`` and
``_matrix_nullities``, which checks the cap. ``_traced_nullities`` (passages
Follow, loop-consistent, other) checks the Euler system, the loop set and the
cap, then starts the trace engine of ``circuitnull.sweep`` at -c(G). Both check
the sweep's length, so both routes give nu per state: ``verify_extended_cle``
compares them whole over all three letters, and each interlace polynomial
reduces one of them.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import InputFormatError
from .gf2 import Gf2Matrix, bit_submatrix, nullity
from .graphs import EulerSystem, Multigraph, _least_rotation
from .interlace import _vertex_set, interlace_matrix
from .sweep import check_cap, circuit_counts, nullities

DEFAULT_SWEEP_CAP = 14


class Transition(str, Enum):
    FOLLOW = "F"
    CROSS = "C"
    FLIP = "X"


TransitionAssignment = Mapping[str, Transition]

_TRANSITIONS = (Transition.FOLLOW, Transition.CROSS, Transition.FLIP)


@dataclass(frozen=True)
class CircuitPartition:
    """Edge-disjoint closed curves covering the graph, as half-edge cycles.

    Each circuit is canonicalized (lexicographically least among the even
    rotations of the sequence and of its reversal) so partitions compare
    as plain values.
    """

    graph: Multigraph
    circuits: tuple[tuple[int, ...], ...]

    # Circuits are half-edge cycles as in an Euler system, so its word readers apply.
    word = EulerSystem.word
    words = EulerSystem.words

    @property
    def size(self) -> int:
        return len(self.circuits)


def canonical_circuit(seq: Sequence[int]) -> tuple[int, ...]:
    """Least representative of a half-edge cycle under even rotation and reversal."""
    return _least_rotation(seq, 2)


def _pairings(es: EulerSystem) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Per vertex index, the (Follow, Cross, Flip) matchings; arrivals i1 < i2 lead to o1, o2."""
    out = []
    for (i1, o1), (i2, o2) in es.visits():
        if i2 < i1:
            i1, o1, i2, o2 = i2, o2, i1, o1
        follow = ((i1, o1), (i2, o2))
        cross = ((i1, o2), (i2, o1))
        flip = ((i1, i2), (o1, o2))
        out.append((follow, cross, flip))
    return out


def _row_options(rows: Sequence[int]) -> list[tuple[int, int, int]]:
    """Per vertex: off is the unit row e_i, then A_i, then A_i with its loop toggled."""
    return [(1 << i, row, row ^ 1 << i) for i, row in enumerate(rows)]


def _check_owner(g: Multigraph, es: EulerSystem) -> None:
    if es.graph != g:
        raise ValueError("Euler system belongs to a different multigraph")


def _whole(route: Iterable[int], letters: int, n: int, what: str) -> array:
    """The route as one signed byte per state; a sweep that ends early or runs long is a bug."""
    values = array("b", route)
    if len(values) != letters**n:
        raise RuntimeError(f"internal error: {len(values)} values for {letters}^{n} {what}")
    return values


def _matrix_nullities(rows: Sequence[int], letters: int, cap: int, what: str) -> array:
    """nu per state over the first ``letters`` row options of each vertex, within the cap."""
    check_cap(len(rows), cap, letters, what)
    # nullities is looked up in this module at call time, so a test can swap the engine.
    route = nullities([options[:letters] for options in _row_options(rows)])
    return _whole(route, letters, len(rows), what)


def _traced_nullities(
    g: Multigraph, es: EulerSystem, loop_set: Iterable[str], letters: int, cap: int, what: str
) -> array:
    """|P| - c(G) per state: off follows C, then the loop-consistent passage, then the other.

    Checks that es belongs to g, then the loop set, then the cap, then the sweep's length.
    """
    _check_owner(g, es)
    loops = _vertex_set(g.vertices, loop_set)
    check_cap(len(g.vertices), cap, letters, what)
    options = []
    for label, (follow, cross, flip) in zip(g.vertices, _pairings(es)):
        if label in loops:
            cross, flip = flip, cross
        options.append((follow, cross, flip)[:letters])
    route = circuit_counts(g.mate, options, -len(es.circuits))
    return _whole(route, letters, len(options), what)


def pairing_at_vertex(es: EulerSystem, v: str, choice: Transition) -> dict[int, int]:
    """The half-edge matching a transition choice induces at one vertex."""
    idx = es.graph.vertex_index(v)
    pairs = _pairings(es)[idx][_TRANSITIONS.index(choice)]
    matching: dict[int, int] = {}
    for h, k in pairs:
        matching[h] = k
        matching[k] = h
    return matching


def _choice_row(vertices: Sequence[str], t: TransitionAssignment) -> list[int]:
    """Validate totality and return each choice's index in _TRANSITIONS, in vertex order."""
    unknown = set(t) - set(vertices)
    if unknown:
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
    for options, choice in zip(_pairings(es), _choice_row(es.graph.vertices, t)):
        for h, k in options[choice]:
            inv[h] = k
            inv[k] = h
    return inv


def _walk_circuits(mate: Sequence[int], inv: Sequence[int]) -> list[tuple[int, ...]]:
    """Closed curves of the union of the edge matching and a passage matching.

    Each new curve starts at the smallest unused half-edge; the sequence
    alternates edge steps (h -> mate) and passages (arrival -> inv).
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
    inv = transition_matchings(es, t)
    raw = _walk_circuits(g.mate, inv)
    circuits = tuple(sorted(canonical_circuit(seq) for seq in raw))
    return CircuitPartition(g, circuits)


def partition_matrix(es: EulerSystem, t: TransitionAssignment) -> Gf2Matrix:
    """I_P: drop Follow rows/columns, keep Cross, set the diagonal on Flip."""
    choices = _choice_row(es.graph.vertices, t)
    rows = [options[c] for options, c in zip(_row_options(interlace_matrix(es).rows), choices)]
    keep = [i for i, c in enumerate(choices) if c]  # index 0 is Follow
    labels = tuple(es.graph.vertices[i] for i in keep)
    return Gf2Matrix(labels, tuple(bit_submatrix(rows, keep)))


def predicted_size(es: EulerSystem, t: TransitionAssignment) -> int:
    """nu(I_P) + c(G), the matrix side of the extended Cohn-Lempel equality."""
    return nullity(partition_matrix(es, t)) + len(es.circuits)


def induced_assignment(
    es: EulerSystem, matchings: Sequence[int] | Mapping[int, int]
) -> dict[str, Transition]:
    """Classify an arbitrary passage matching relative to an Euler system.

    The matching at every vertex must be one of the three pairings of its
    four half-edges; the result re-expresses the same circuit partition as
    a transition assignment for es.
    """
    result: dict[str, Transition] = {}
    for idx, options in enumerate(_pairings(es)):
        label = es.graph.vertices[idx]
        sample = {frozenset((h, matchings[h])) for h in es.graph.half_edges_at(idx)}
        for choice, pairs in zip(_TRANSITIONS, options):
            if sample == {frozenset(p) for p in pairs}:
                result[label] = choice
                break
        else:
            raise ValueError(
                f"matching at vertex {label} is not a pairing of its half-edges"
            )
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
    try:
        _choice_row(vertices, result)
    except ValueError as exc:  # a vertex with no token
        raise InputFormatError(str(exc)) from None
    return result


def format_assignment(t: TransitionAssignment, vertices: Sequence[str]) -> str:
    return " ".join(f"{label}:{Transition(t[label]).value}" for label in vertices)


@dataclass(frozen=True)
class SweepFailure:
    assignment: str
    traced: int
    predicted: int

    def to_json_dict(self) -> dict:
        return {"assignment": self.assignment, "traced": self.traced, "predicted": self.predicted}


@dataclass(frozen=True)
class SweepReport:
    """Result of exhaustively checking |P| = nu(I_P) + c(G)."""

    checked: int
    failures: tuple[SweepFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "failures": [f.to_json_dict() for f in self.failures],
        }


def verify_extended_cle(
    g: Multigraph, es: EulerSystem, cap: int = DEFAULT_SWEEP_CAP
) -> SweepReport:
    """Trace every one of the 3^|V| assignments and compare with the prediction."""
    traced = _traced_nullities(g, es, (), 3, cap, "assignments")
    nus = _matrix_nullities(interlace_matrix(es).rows, 3, cap, "assignments")
    n, ncomp = len(g.vertices), len(es.circuits)
    # The sweeps are compared whole; the states are scanned only to list the failures.
    states = itertools.product(_TRANSITIONS, repeat=n) if traced != nus else ()
    failures = []
    for combo, traced_nu, nu in zip(states, traced, nus):
        if traced_nu != nu:
            assignment = format_assignment(dict(zip(g.vertices, combo)), g.vertices)
            failures.append(SweepFailure(assignment, traced_nu + ncomp, nu + ncomp))
    return SweepReport(3 ** n, tuple(failures))
