"""Orbit counting for permutations via interleaving matrices and via tracing.

The classical Cohn-Lempel equality counts the orbits of pi = sigma s1 ... sk
(sigma the full cycle, s_i pairwise disjoint transpositions, applied after
sigma) as 1 + nu(I_pi). Arbitrary permutations reduce to circuit partitions
of a 2-in, 2-out pair digraph, where the extended equality applies.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError, InputFormatError
from .gf2 import Gf2Matrix, nullity
from .graphs import Multigraph, directed_euler_system
from .interlace import _interleaving_rows
from .partitions import Transition, format_assignment, induced_assignment, predicted_size, trace

# At m = 32,768 the nullity route takes 4.5 s (142 MiB) and the reduction 2.0 s (166 MiB), and
# at 65,536 the reduction 10.7 s (553 MiB) (README, "Orbit counting"): a 10 s, 512 MiB budget.
DEFAULT_ORBIT_CAP = 32768
MAX_ELEMENTS = 1_000_000  # the parsed image takes about 140 bytes per element
_CYCLE = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..m}; image[i] is the image of i+1."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        m = len(self.image)
        if sorted(self.image) != list(range(1, m + 1)):
            raise ValueError("image is not a bijection on {1..m}")

    @property
    def size(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def orbits(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        result = []
        for start in range(1, self.size + 1):
            if seen[start - 1]:
                continue
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = self(i)
            result.append(tuple(cycle))
        return result


def orbit_count(p: Permutation) -> int:
    """Number of orbits, counted by direct iteration (the oracle side)."""
    return len(p.orbits())


def parse_permutation(text: str, size: int | None = None) -> Permutation:
    """Parse one-line images ("3 1 2") or cycle notation ("(1 3 2)(4 5)"), up to MAX_ELEMENTS."""
    stripped = text.strip()
    if "(" in stripped:
        cycles = [[_parse_element(tok) for tok in c.split()] for c in _CYCLE.findall(stripped)]
        rest = _CYCLE.sub(" ", stripped).strip()
        if rest:
            raise InputFormatError(f"unparsed text {rest!r} in cycle notation")
        mentioned = [x for cyc in cycles for x in cyc]
        if len(set(mentioned)) != len(mentioned):
            raise InputFormatError("an element appears in two cycles")
        m = max(mentioned, default=0)
        if size is not None:
            if size < m:
                raise InputFormatError(f"size {size} is smaller than largest element {m}")
            m = size
        if m == 0:
            raise InputFormatError("empty cycle notation needs an explicit size")
        _check_size(m)
        image = list(range(1, m + 1))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                image[x - 1] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(image))
    tokens = stripped.split()
    if not tokens:
        raise InputFormatError("empty permutation")
    _check_size(len(tokens))
    image = tuple(_parse_element(tok) for tok in tokens)
    if size is not None and size != len(image):
        raise InputFormatError(f"one-line form has {len(image)} entries, expected {size}")
    try:
        return Permutation(image)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def _check_size(m: int) -> None:
    if m > MAX_ELEMENTS:
        raise InputFormatError(f"permutation of {m} elements is above the limit of {MAX_ELEMENTS}")


def _parse_element(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise InputFormatError(f"bad element {token!r}") from None
    if value < 1:
        raise InputFormatError(f"elements start at 1, got {value}")
    return value


def _normalize_transpositions(
    m: int, transpositions: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    pairs = []
    seen: set[int] = set()
    for a, b in transpositions:
        a, b = int(a), int(b)
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValueError(f"transposition ({a} {b}) leaves {{1..{m}}}")
        if a == b:
            raise ValueError(f"({a} {b}) is not a transposition")
        if a > b:
            a, b = b, a
        if a in seen or b in seen:
            raise ValueError("transpositions must be pairwise disjoint")
        seen.update((a, b))
        pairs.append((a, b))
    return pairs


def cohn_lempel_matrix(
    m: int, transpositions: Iterable[tuple[int, int]]
) -> Gf2Matrix:
    """Interleaving matrix of disjoint transpositions on {1..m}.

    Entry (i, j) is 1 exactly when the two transpositions interleave as
    intervals: one end of each lies strictly between the ends of the other.
    """
    pairs = _normalize_transpositions(m, transpositions)
    labels = tuple(f"({a} {b})" for a, b in pairs)
    return Gf2Matrix(labels, tuple(_interleaving_rows(pairs)))


def compose_cycle_with_transpositions(
    m: int, transpositions: Iterable[tuple[int, int]]
) -> Permutation:
    """sigma s1 ... sk applied left to right: the full cycle acts first."""
    pairs = _normalize_transpositions(m, transpositions)
    swap = {x: y for a, b in pairs for x, y in ((a, b), (b, a))}
    image = []
    for i in range(1, m + 1):
        j = i % m + 1  # sigma = (1 2 ... m)
        image.append(swap.get(j, j))
    return Permutation(tuple(image))


def _check_orbit_cap(m: int, cap: int) -> None:
    if m > cap:
        raise CapExceededError(f"permutation size {m} exceeds the orbit cap {cap}")


def orbit_count_via_nullity(
    m: int, transpositions: Iterable[tuple[int, int]], cap: int = DEFAULT_ORBIT_CAP
) -> int:
    """1 + nu(I_pi): the matrix side of the Cohn-Lempel equality, for m up to ``cap``."""
    _check_orbit_cap(m, cap)
    return 1 + nullity(cohn_lempel_matrix(m, transpositions))


def sigma_transposition_factorization(p: Permutation) -> list[tuple[int, int]] | None:
    """Disjoint transpositions t with p = sigma * t (sigma first), if any.

    Returns None when sigma^-1 followed by p is not an involution; the
    identity on three or more elements is the classic inexpressible case.
    """
    m = p.size
    tau = [0] * m
    for y in range(1, m + 1):
        pre = m if y == 1 else y - 1  # sigma^-1(y)
        tau[y - 1] = p(pre)
    for y in range(1, m + 1):
        if tau[tau[y - 1] - 1] != y:
            return None
    return [(y, tau[y - 1]) for y in range(1, m + 1) if tau[y - 1] > y]


def even_extension(p: Permutation) -> Permutation:
    """Extend an odd-size permutation to even size without changing orbit count.

    The new top element 2n is spliced into the orbit of 2n-1: 2n-1 now maps
    to 2n, and 2n maps to the old image of 2n-1. Even sizes pass through.
    """
    m = p.size
    if m % 2 == 0:
        return p
    image = list(p.image) + [p(m)]
    image[m - 1] = m + 1
    return Permutation(tuple(image))


@dataclass(frozen=True)
class PairDigraph:
    """2-in, 2-out digraph built from a permutation and a pairing of {1..2n}.

    Edge i runs from the vertex of the pair containing i to the vertex of
    the pair containing i's image; ``transition`` is the passage matching of
    the permutation's circuit partition (after edge i comes edge image(i)).
    """

    graph: Multigraph
    is_out: tuple[bool, ...]
    transition: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def _default_pairing(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(1, m, 2))


def permutation_to_digraph(
    p: Permutation, pairing: Sequence[tuple[int, int]] | None = None
) -> PairDigraph:
    """Build the pair digraph of a permutation (odd sizes extended first)."""
    p = even_extension(p)
    m = p.size
    if pairing is None:
        pairs = _default_pairing(m)
    else:
        pairs = tuple((int(a), int(b)) for a, b in pairing)
        flat = [x for pair in pairs for x in pair]
        if sorted(flat) != list(range(1, m + 1)):
            raise ValueError(f"pairing is not a partition of {{1..{m}}} into pairs")
    pair_of = [0] * (m + 1)
    for idx, (a, b) in enumerate(pairs):
        pair_of[a] = pair_of[b] = idx
    # Edge i - 1 runs from i's pair to p(i)'s pair; pair idx is the vertex labelled idx + 1.
    vertex_of = tuple(pair_of[x] for i, j in enumerate(p.image, 1) for x in (i, j))
    graph = Multigraph(tuple(map(str, range(1, len(pairs) + 1))), vertex_of)
    is_out = (True, False) * m
    transition = [0] * graph.num_half_edges
    for i, j in enumerate(p.image):  # edge i's head meets the tail of edge j - 1
        transition[2 * i + 1], transition[2 * j - 2] = 2 * j - 2, 2 * i + 1
    return PairDigraph(graph, is_out, tuple(transition), pairs)


@dataclass(frozen=True)
class ReductionReport:
    """Orbit count recomputed through the pair-digraph circuit partition."""

    size: int
    extended_size: int
    orbits: int
    nullity: int
    components: int
    traced: int
    assignment: str

    @property
    def predicted(self) -> int:
        return self.nullity + self.components

    @property
    def ok(self) -> bool:
        return self.orbits == self.predicted == self.traced

    def to_json_dict(self) -> dict:
        return {**asdict(self), "predicted": self.predicted, "ok": self.ok}


def verify_permutation_reduction(
    p: Permutation, pairing: Sequence[tuple[int, int]] | None = None, cap: int = DEFAULT_ORBIT_CAP
) -> ReductionReport:
    """Check orbit count = nu(I_P) + c(D) through the pair-digraph reduction."""
    _check_orbit_cap(p.size, cap)
    extended = even_extension(p)
    pd = permutation_to_digraph(extended, pairing)
    es = directed_euler_system(pd.graph, pd.is_out)
    t = induced_assignment(es, pd.transition)
    if any(choice == Transition.FLIP for choice in t.values()):
        raise RuntimeError("internal error: permutation partition is orientation-inconsistent")
    return ReductionReport(
        size=p.size,
        extended_size=extended.size,
        orbits=orbit_count(extended),
        nullity=predicted_size(es, t) - len(es.circuits),
        components=len(es.circuits),
        traced=trace(pd.graph, es, t).size,
        assignment=format_assignment(t, pd.graph.vertices),
    )
