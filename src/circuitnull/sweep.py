"""Shared-prefix enumeration of vertex states: GF(2) nullities and circuit counts.

A sweep picks one letter per vertex from a 2- or 3-letter alphabet and visits the
states in ``itertools.product`` order (vertex 0 most significant), so reports list
states as a plain nested loop would. Each engine runs an odometer over the first n - 2
vertices, redoing only those from the first one that changed, and gets the values of
the last two vertices' 9 (or 4) states from one table lookup per prefix. Each returns
one ``array("b")``, a signed byte per state: 4.8 MB for 3^14 states (the default cap).

- ``nullities`` keeps the matrix at a fixed n x n shape. An "off" vertex (Follow, or not
  in S) has the unit row ``e_i``, which adds exactly 1 to the rank, so the nullity is
  that of the principal submatrix on the other vertices. e_u, A_u, e_w, A_w (the last
  two vertices' rows) enter an XOR basis once per sweep; prefix rows join it. The
  prefix rank and the sums of those four rows that the prefix spans fix the entry.
- ``circuit_counts`` joins a vertex's passage pairs into the open strands, logging each
  link for undo. The curve count and the far ends of the last two vertices' 8 half-edges
  fix the table entry. It never sees a matrix, so the engines stay independent routes.
  Counting from -c(G) makes it give nu per state too. Neither engine has guards:
  ``circuitnull.partitions`` runs them.
"""

from __future__ import annotations

from array import array
from functools import cache
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


# _LEAVES[option counts of the last two vertices][(n - r) << 16 | kernel mask]: no graph data.
_LEAVES: dict[tuple[int, int], dict[int, array]] = {}


@cache  # keyed by a subspace of GF(2)^4 and a tag sum: at most 67 * 16 entries
def _grown(kernel: int, t: int) -> int:
    """The membership mask of span(kernel + {t}): bit k is set iff k lies in the span."""
    return kernel | sum(1 << (k ^ t) for k in range(16) if kernel >> k & 1)


def _leaf_nullities(key: int, shape: tuple[int, int]) -> array:
    """The last two vertices' nullities for the n - r and kernel in ``key``, in product order."""
    # Tag sums x and y stand for the two rows. m of x, y and x ^ y lie in the kernel
    # (0, 1 or 3), and the two rows add 2 - (m + 1) // 2 to the prefix rank r.
    return array("b", (
        (key >> 16) - 2 + ((key >> x & 1) + (key >> y & 1) + (key >> (x ^ y) & 1) + 1) // 2
        for x in (1, 2, 3)[: shape[0]]
        for y in (4, 8, 12)[: shape[1]]
    ))


def nullities(options: Sequence[Sequence[int]]) -> array:
    """GF(2) nullity of every n x n matrix taking row i from ``options[i]``.

    Rows are bit-packed (bit j is column j); a vertex has at most three rows, and a
    third is the sum of the first two (as e_i, A_i and A_i + e_i are). One signed byte
    per state, in product order over the options; no rows at all give one nullity, 0.
    """
    n = len(options)
    if n < 2:  # no pair to fold: the empty matrix, or the 1 x 1 matrices (v)
        return array("b", [1 - v for v in options[0]] if n else [0])
    *prefix, second, last = options
    # Rows move up 4 bits. Below them the first two rows of the last two vertices carry
    # the tags 1, 2 and 4, 8, so a reduction also sums the tags of the rows it used.
    # The tagged rows lead as one-option vertices: they enter the basis once per sweep.
    tagged = [v << 4 | t for v, t in [*zip(second, (1, 2)), *zip(last, (4, 8))]]
    rows = [(v,) for v in tagged] + [[v << 4 for v in opts] for opts in prefix]
    shape = len(second), len(last)
    leaves = _LEAVES.setdefault(shape, {})
    pivots = [0] * (n + 4)  # pivots[b]: a basis row whose highest set bit is b, or 0
    placed = [-1] * len(rows)  # placed[d]: the pivot bit the row of depth d added, or -1
    # saved[d]: the rank of the rows above depth d, each tagged row adding 1, and the kernel
    # mask: bit t is set iff the tagged rows in t sum into the span of the prefix rows.
    saved = [(0, 1)] * (len(rows) + 1)
    out = array("b")
    for first, digits in _odometer([len(o) for o in rows]):
        for d in range(first, len(rows)):
            if placed[d] >= 0:
                pivots[placed[d]] = 0
                placed[d] = -1
        r, kernel = saved[first]
        for d in range(first, len(rows)):
            v = rows[d][digits[d]]
            while v > 15:
                b = v.bit_length() - 1
                w = pivots[b]
                if not w:
                    pivots[b] = v
                    placed[d] = b
                    r += 1
                    break
                v ^= w
            else:
                # A row that reduces to its tag sum t alone puts that sum of tagged rows
                # in the span: new unless t already is, and then the rank grows too.
                if not kernel >> v & 1:
                    kernel = _grown(kernel, v)
                    r += 1
            saved[d + 1] = r, kernel
        key = (n + len(tagged) - r) << 16 | kernel
        values = leaves.get(key)
        if values is None:
            values = leaves[key] = _leaf_nullities(key, shape)
        out += values
    return out


def circuit_counts(
    mate: Sequence[int], options: Sequence[Sequence[Pairing]], start: int
) -> array:
    """Closed curves plus ``start``, for every choice of one pairing per vertex.

    ``options[i]`` lists the candidate passage pairings at vertex i, each as its two
    pairs of half-edges; a curve alternates edge steps (h -> mate[h]) and passages. A
    pair (h, k) closes a curve if h and k end one open strand, and otherwise links the
    strands' far ends. The memo for the last two vertices holds at most 105 pairings of
    their 8 half-edges times n + 1 curve counts. One signed byte per state, in product
    order, shifted by ``start`` with no extra pass (OverflowError outside -128..127).
    """
    if not options:
        return array("b", [start])
    # A single vertex is folded with a vertex whose one option links nothing.
    *prefix, second, last = [((),), *options] if len(options) == 1 else options
    ends = itemgetter(*[h for pairs in (second[0], last[0]) for pair in pairs for h in pair])
    end = list(mate)  # end[h]: far end of the open strand at h
    log = []  # (a, old end[a], b, old end[b]) per link, oldest first
    saved = [(0, start)] * (len(prefix) + 1)  # saved[d]: (len(log), curves) before vertex d
    memo: dict[tuple, array] = {}  # (curves, far ends) -> values of the last two
    out = array("b")
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
            values = memo[key] = array("b", found)
        out += values
    return out
