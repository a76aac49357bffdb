"""Shared-prefix enumeration of vertex states: GF(2) nullities and circuit counts.

A sweep picks one letter per vertex from a 2- or 3-letter alphabet and visits the
states in ``itertools.product`` order (vertex 0 most significant), so reports list
states as a plain nested loop would. Each engine runs an odometer over the first n - 2
vertices, redoing only those from the first one that changed, and gets the values of
the last two vertices' 9 (or 4) states from one table lookup per prefix:

- ``nullities`` keeps the matrix at a fixed n x n shape. An "off" vertex (Follow, or not
  in S) has the unit row ``e_i``, which adds exactly 1 to the rank, so the nullity is
  that of the principal submatrix on the other vertices. Prefix rows go into an XOR
  basis. The prefix rank and the sums of e_u, A_u, e_w, A_w (the last two vertices'
  rows) that the basis spans fix the table entry.
- ``circuit_counts`` joins a vertex's passage pairs into the open strands, logging each
  link for undo. The curve count and the far ends of the last two vertices' 8 half-edges
  fix the table entry. It never sees a matrix, so the engines stay independent routes.
  Counting from -c(G) makes it yield nu per state too. Neither engine has guards:
  ``circuitnull.partitions`` runs them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from .errors import CapExceededError

Pairing = Sequence[tuple[int, int]]


def check_cap(n: int, cap: int, base: int, what: str) -> None:
    """Refuse a sweep of base^n states when n exceeds the vertex cap."""
    if n > cap:
        raise CapExceededError(
            f"refusing to sweep {base}^{n} = {base ** n} {what} "
            f"(cap is {cap} vertices; pass a larger cap to force it)"
        )


def _odometer(sizes: Sequence[int]) -> Iterator[tuple[int, list[int]]]:
    """Yield (first changed position, digits) over all digit tuples in product order.

    The digit list is reused between steps; callers read it before resuming.
    """
    digits = [0] * len(sizes)
    first = 0
    while True:
        yield first, digits
        d = len(sizes) - 1
        while d >= 0 and digits[d] + 1 == sizes[d]:
            digits[d] = 0
            d -= 1
        if d < 0:
            return
        digits[d] += 1
        first = d


# _LEAVES[option counts of the last two vertices][(n - r) << 16 | kernel]: no graph data.
_LEAVES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}


def _leaf_nullities(key: int, shape: tuple[int, int]) -> tuple[int, ...]:
    """The last two vertices' nullities for the n - r and kernel in ``key``, in product order."""
    kernel = {0}
    for t in range(1, 16):
        if key >> t & 1:
            kernel |= {k ^ t for k in kernel}
    # Tag sums x and y stand for the two rows. m of x, y and x ^ y lie in the kernel
    # (0, 1 or 3), and the two rows add 2 - (m + 1) // 2 to the prefix rank r.
    return tuple(
        (key >> 16) - 2 + ((x in kernel) + (y in kernel) + (x ^ y in kernel) + 1) // 2
        for x in (1, 2, 3)[: shape[0]]
        for y in (4, 8, 12)[: shape[1]]
    )


def nullities(options: Sequence[Sequence[int]]) -> Iterator[int]:
    """GF(2) nullity of every n x n matrix taking row i from ``options[i]``.

    Rows are bit-packed (bit j is column j); a vertex has at most three rows, and a
    third is the sum of the first two (as e_i, A_i and A_i + e_i are). One value per
    state, in product order over the options; no rows at all yield the single nullity 0.
    """
    n = len(options)
    if n < 2:  # no pair to fold: the empty matrix, or the 1 x 1 matrices (v)
        yield from [1 - v for v in options[0]] if n else [0]
        return
    *prefix, second, last = options
    # Rows move up 4 bits. Below them the first two rows of the last two vertices carry
    # the tags 1, 2 and 4, 8, so a reduction also sums the tags of the rows it used.
    tagged = [v << 4 | t for v, t in zip(second, (1, 2))]
    tagged += [v << 4 | t for v, t in zip(last, (4, 8))]
    prefix = [[v << 4 for v in rows] for rows in prefix]
    shape = len(second), len(last)
    leaves = _LEAVES.setdefault(shape, {})
    pivots = [0] * (n + 4)  # pivots[b]: a basis row whose highest set bit is b, or 0
    placed = [-1] * n  # placed[d]: the pivot bit the row of vertex d added, or -1
    rank = [0] * (n + 1)  # rank[d]: rank of the rows of vertices 0..d-1
    for first, digits in _odometer([len(o) for o in prefix]):
        for d in range(first, len(prefix)):
            if placed[d] >= 0:
                pivots[placed[d]] = 0
                placed[d] = -1
        r = rank[first]
        for d in range(first, len(prefix)):
            v = prefix[d][digits[d]]
            while v:
                b = v.bit_length() - 1
                w = pivots[b]
                if not w:
                    pivots[b] = v
                    placed[d] = b
                    r += 1
                    break
                v ^= w
            rank[d + 1] = r
        # A tagged row that reduces to its tag alone has found a kernel element: a sum
        # of tagged rows in the span of the prefix rows. The tagged rows then leave.
        key, inserted = (n - r) << 16, []
        for v in tagged:
            while v > 15:
                b = v.bit_length() - 1
                w = pivots[b]
                if not w:
                    pivots[b] = v
                    inserted.append(b)
                    break
                v ^= w
            else:
                key |= 1 << v
        for b in inserted:
            pivots[b] = 0
        values = leaves.get(key)
        if values is None:
            values = leaves[key] = _leaf_nullities(key, shape)
        yield from values


def circuit_counts(
    mate: Sequence[int], options: Sequence[Sequence[Pairing]], start: int
) -> Iterator[int]:
    """Closed curves plus ``start``, for every choice of one pairing per vertex.

    ``options[i]`` lists the candidate passage pairings at vertex i, each as its two
    pairs of half-edges; a curve alternates edge steps (h -> mate[h]) and passages. A
    pair (h, k) closes a curve if h and k end one open strand, and otherwise links the
    strands' far ends. The memo for the last two vertices holds at most 105 pairings of
    their 8 half-edges times n + 1 curve counts. One value per state, in product order,
    shifted by ``start`` with no extra pass.
    """
    if not options:
        yield start
        return
    # A single vertex is folded with a vertex whose one option links nothing.
    *prefix, second, last = [((),), *options] if len(options) == 1 else options
    ends = itemgetter(*[h for pairs in (second[0], last[0]) for pair in pairs for h in pair])
    end = list(mate)  # end[h]: far end of the open strand at h
    log = []  # (a, old end[a], b, old end[b]) per link, oldest first
    saved = [(0, start)] * (len(prefix) + 1)  # saved[d]: (len(log), curves) before vertex d
    memo: dict[tuple, tuple[int, ...]] = {}  # (curves, far ends) -> values of the last two
    for first, digits in _odometer([len(o) for o in prefix]):
        size, c = saved[first]
        while len(log) > size:
            a, h, b, k = log.pop()
            end[a], end[b] = h, k
        for d in range(first, len(prefix)):
            saved[d] = len(log), c
            for h, k in prefix[d][digits[d]]:
                a, b = end[h], end[k]
                if a == k:
                    c += 1
                else:
                    end[a], end[b] = b, a
                    log.append((a, h, b, k))
        key = c, ends(end)
        values = memo.get(key)
        if values is None:
            found = []
            for pairs in second:  # linked in place, then undone
                linked, undo = c, []
                for h, k in pairs:
                    a, b = end[h], end[k]
                    if a == k:
                        linked += 1
                    else:
                        end[a], end[b] = b, a
                        undo.append((a, h, b, k))
                for (h1, k1), (h2, k2) in last:  # answered without changing end
                    a, b = end[h1], end[k1]
                    e = b if h2 == a else a if h2 == b else end[h2]  # h2's far end after linking
                    found.append(linked + (a == k1) + (e == k2))
                for a, h, b, k in reversed(undo):
                    end[a], end[b] = h, k
            values = memo[key] = tuple(found)
        yield from values
