"""Shared-prefix enumeration of vertex states: GF(2) nullities and circuit counts.

A sweep picks one letter per vertex from a 2- or 3-letter alphabet and visits the
states in ``itertools.product`` order (vertex 0 most significant), so reports list
states as a plain nested loop would. Consecutive states share a prefix, and each
engine redoes only the vertices from the first one that changed:

- ``nullities`` keeps the matrix at a fixed n x n shape. An "off" vertex (Follow, or not
  in S) has the unit row ``e_i``, which adds exactly 1 to the rank, so the nullity is
  that of the principal submatrix on the other vertices. Rows go into one XOR basis; a
  vertex's row leaves it when the odometer moves past that vertex, so each depth keeps
  its own basis.
- ``circuit_counts`` joins a vertex's passage pairs into the open strands, logging each
  link so the odometer can undo it back to the first changed vertex. It never sees a
  matrix, so the two engines stay independent routes. Counting from -c(G) makes it
  yield nu per state too. Neither engine has guards: ``circuitnull.partitions`` runs them.
"""

from __future__ import annotations

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


def nullities(options: Sequence[Sequence[int]]) -> Iterator[int]:
    """GF(2) nullity of every n x n matrix taking row i from ``options[i]``.

    Rows are bit-packed (bit j is column j). One value per state, in product
    order over the options; no rows at all yield the single nullity 0.
    """
    n = len(options)
    *prefix, last = options or [(0,)]
    pivots = [0] * n  # pivots[b]: a basis row whose highest set bit is b, or 0
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
        for v in last:
            while v:
                w = pivots[v.bit_length() - 1]
                if not w:
                    break
                v ^= w
            yield n - r - 1 if v else n - r


def circuit_counts(
    mate: Sequence[int], options: Sequence[Sequence[Pairing]], start: int
) -> Iterator[int]:
    """Closed curves plus ``start``, for every choice of one pairing per vertex.

    ``options[i]`` lists the candidate passage pairings at vertex i, each as its two
    pairs of half-edges; a curve alternates edge steps (h -> mate[h]) and passages. A
    pair (h, k) closes a curve if h and k end one open strand, and otherwise links the
    strands' far ends; links are logged for undo, and the last vertex is counted without
    linking. One value per state, in product order, shifted by ``start`` with no extra pass.
    """
    if not options:
        yield start
        return
    *prefix, last = options
    end = list(mate)  # end[h]: far end of the open strand at h
    log = []  # (a, old end[a], b, old end[b]) per link, oldest first
    saved = [(0, start)] * len(options)  # saved[d]: (len(log), curves) before vertex d
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
        for (h1, k1), (h2, k2) in last:  # answered without changing end
            a, b = end[h1], end[k1]
            e = b if h2 == a else a if h2 == b else end[h2]  # h2's far end after linking
            yield c + (a == k1) + (e == k2)
