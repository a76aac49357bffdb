"""The sweep engines: GF(2) nullities and circuit counts per vertex state, and curve histograms.

``nullities`` and ``circuit_counts`` pick one letter per vertex from a 2- or 3-letter alphabet
and visit the states in ``itertools.product`` order (vertex 0 most significant), so reports
list states as a plain nested loop would. Each walks the prefix tree of the first n - k
vertices, k = min(3, n), by recursion, at most n + 4 calls deep: a call fixes one vertex's
option, descends and undoes it on return, so its frame holds what a rewind needs. At the
bottom one table lookup gives the last k vertices' 27 (or 8, or fewer) values. Each
returns one ``array("b")``, a signed byte per state: 4.8 MB for 3^14 (the default cap).

- ``nullities`` keeps the matrix at a fixed n x n shape. An "off" vertex (Follow, or not
  in S) has the unit row ``e_i``, which adds exactly 1 to the rank, so the nullity is
  that of the principal submatrix on the other vertices. e_j and A_j for each of the k
  leaf vertices enter an XOR basis once per sweep; prefix rows join it, and each call clears
  the pivot it set. The prefix rank and the sums of those 2k rows that the prefix spans,
  passed down as arguments, fix the entry.
- ``circuit_counts`` joins a vertex's passage pairs into the open strands, logging each
  link, and unwinds the log to its size on entry. The curve count and the far ends of the
  last three vertices' 12 half-edges fix the entry; a miss links each option of the first
  of them and reads a table for the last two. Counting from -c(G) gives nu per state too.
- ``circuit_histogram`` visits no states: a transfer matrix over a vertex order, it
  counts the states by |S| and curves per pairing of the cut's open ends, and caps those.

The trace engines never see a matrix, so the routes stay independent. ``circuitnull.partitions``
runs every other guard.
"""

from __future__ import annotations

from array import array
from functools import cache
from operator import itemgetter
from typing import Sequence

from .errors import CapExceededError

Pairing = Sequence[tuple[int, int]]


def check_cap(n: int, cap: int, base: int, what: str) -> None:
    """Refuse a sweep of base^n states when n exceeds the vertex cap."""
    if n > cap:
        try:
            count = f"{base}^{n} = {base ** n}"
        except ValueError:  # more digits than the interpreter will convert to text
            count = f"{base}^{n}"
        raise CapExceededError(
            f"refusing to sweep {count} {what} "
            f"(cap is {cap} vertices; pass a larger cap to force it)"
        )


@cache  # keyed by a subspace of GF(2)^6 and a tag sum: at most 2,825 * 64 entries
def _grown(kernel: int, t: int) -> int:
    """The membership mask of span(kernel + {t}): bit s is set iff s lies in the span."""
    grown, rest = kernel, kernel
    while rest:
        low = rest & -rest
        grown |= 1 << ((low.bit_length() - 1) ^ t)
        rest ^= low
    return grown


@cache  # keyed by the option counts of at most three vertices
def _spans(shape: tuple[int, ...]) -> list[int]:
    """Per leaf state, in product order: the membership mask of the span of its tag sums."""
    spans = [1]
    for j, size in enumerate(shape):
        spans = [_grown(s, x << 2 * j) for s in spans for x in (1, 2, 3)[:size]]
    return spans


@cache  # no graph data: at most 2,825 kernels per n - r and shape
def _leaf_nullities(free: int, kernel: int, shape: tuple[int, ...]) -> array:
    """The leaf vertices' nullities, in product order, for n - r = ``free`` and a kernel."""
    # A state's k rows add k - d to the prefix rank r when 2^d sums in their span lie in
    # the kernel, so its nullity is (n - r) - k + d, and 2^d has bit length d + 1.
    base = free - len(shape) - 1
    return array("b", [base + (kernel & s).bit_count().bit_length() for s in _spans(shape)])


def nullities(options: Sequence[Sequence[int]]) -> array:
    """GF(2) nullity of every n x n matrix taking row i from ``options[i]``.

    Rows are bit-packed (bit j is column j); a vertex has at most three rows, and a
    third is the sum of the first two (as e_i, A_i and A_i + e_i are). One signed byte
    per state, in product order over the options; no rows at all give one nullity, 0.
    """
    n = len(options)
    k = min(3, n)
    prefix, leaf = options[: n - k], options[n - k :]
    # Rows move up 2k bits. Below them the first two rows of leaf vertex j carry the tags
    # 1 << 2j and 2 << 2j, so a reduction also sums the tags of the rows it used. The
    # tagged rows lead as one-option vertices: they enter the basis once per sweep.
    top = 1 << 2 * k
    tagged = [v * top | t << 2 * j for j, opts in enumerate(leaf) for v, t in zip(opts, (1, 2))]
    rows = [(v,) for v in tagged] + [[v * top for v in opts] for opts in prefix]
    shape, free = tuple(map(len, leaf)), n + len(tagged)
    pivots = [0] * (n + 2 * k)  # pivots[b]: a basis row whose highest set bit is b, or 0
    out = array("b")

    def visit(depth: int, r: int, kernel: int) -> None:
        # r: the rank of the rows above depth, each tagged row adding 1; kernel: a mask
        # whose bit t is set iff the tagged rows in t sum into the span of the prefix rows.
        if depth == len(rows):
            out.extend(_leaf_nullities(free - r, kernel, shape))
            return
        for v in rows[depth]:
            while v >= top:
                b = v.bit_length() - 1
                w = pivots[b]
                if not w:
                    pivots[b] = v
                    visit(depth + 1, r + 1, kernel)
                    pivots[b] = 0
                    break
                v ^= w
            else:
                # A row that reduces to its tag sum t alone puts that sum of tagged rows
                # in the span: new unless t already is, and then the rank grows too.
                if kernel >> v & 1:
                    visit(depth + 1, r, kernel)
                else:
                    visit(depth + 1, r + 1, _grown(kernel, v))

    visit(0, 0, 1)
    return out


def _link(end: list[int], pairs: Pairing, c: int, log: list) -> int:
    """Join the open strands at each pair in ``end``, logging each link; c plus closed curves."""
    for h, k in pairs:
        a, b = end[h], end[k]
        if a == k:
            c += 1
        else:
            end[a], end[b] = b, a
            log.append((a, h, b, k))
    return c


def _unlink(end: list[int], log: list, size: int) -> None:
    """Undo the links logged after the first ``size``, newest first."""
    while len(log) > size:
        a, h, b, k = log.pop()
        end[a], end[b] = h, k


def _pair_counts(
    end: list[int], log: list, second: Sequence[Pairing], last: Sequence[Pairing], c: int
) -> array:
    """The last two vertices' curve counts from c and the open strands in ``end``."""
    found = array("b")
    size = len(log)
    for pairs in second:  # linked in place, then undone
        linked = _link(end, pairs, c, log)
        for (h1, k1), (h2, k2) in last:  # answered without changing end
            a, b = end[h1], end[k1]
            e = b if h2 == a else a if h2 == b else end[h2]  # h2's far end after linking
            found.append(linked + (a == k1) + (e == k2))
        _unlink(end, log, size)
    return found


def circuit_counts(
    mate: Sequence[int], options: Sequence[Sequence[Pairing]], start: int
) -> array:
    """Closed curves plus ``start``, for every choice of one pairing per vertex.

    ``options[i]`` lists the candidate passage pairings at vertex i, each as its two
    pairs of half-edges; a curve alternates edge steps (h -> mate[h]) and passages. A
    pair (h, k) closes a curve if h and k end one open strand, and otherwise links the
    strands' far ends. The memo of the last three vertices (10,395 pairings of their 12
    half-edges times n + 1 curve counts) misses into one of the last two (105 of 8). One
    signed byte per state, in product order, shifted by ``start`` with no extra pass
    (OverflowError outside -128..127).
    """
    if not options:  # the empty product: one state, no curves
        return array("b", [start])
    # Fewer than three vertices are padded in front with vertices whose one option links nothing.
    *prefix, third, second, last = [((),)] * (3 - len(options)) + list(options)
    u, v, w = [[h for pair in vertex[0] for h in pair] for vertex in (third, second, last)]
    leaf_ends, pair_ends = itemgetter(*u, *v, *w), itemgetter(*v, *w)
    end = list(mate)  # end[h]: far end of the open strand at h
    log = []  # (a, old end[a], b, old end[b]) per link, oldest first
    memo: dict[tuple, array] = {}  # (curves, far ends) -> values of the last three
    pair_memo: dict[tuple, array] = {}  # the same for the last two
    out = array("b")

    def visit(depth: int, c: int) -> None:
        if depth < len(prefix):
            size = len(log)
            for pairs in prefix[depth]:  # linked in place, then undone
                visit(depth + 1, _link(end, pairs, c, log))
                _unlink(end, log, size)
            return
        key = c, leaf_ends(end)
        values = memo.get(key)
        if values is None:
            values = memo[key] = array("b")
            size = len(log)
            for pairs in third:  # linked in place, then undone
                linked = _link(end, pairs, c, log)
                pair_key = linked, pair_ends(end)
                found = pair_memo.get(pair_key)
                if found is None:
                    found = pair_memo[pair_key] = _pair_counts(end, log, second, last, linked)
                values += found
                _unlink(end, log, size)
        out.extend(values)

    visit(0, start)
    return out


def circuit_histogram(
    mate: Sequence[int], options: Sequence[Sequence[Pairing]], order: Sequence[int], start: int,
    cap: int,
) -> dict[tuple[int, int], int]:
    """(|S|, closed curves + start) -> number of states S, joining the vertices in ``order``.

    ``options[i]`` is vertex i's pairing off S, then in S. A DP state is the far ends of the
    cut's half-edges (unjoined, with joined mates); its histogram is one int of slots curves *
    (n + 1) + |S|, n + 1 bits wide as no count exceeds 2^n, so one shift takes a letter and
    one add merges two states. A step raises CapExceededError once it holds over ``cap`` states.
    """
    width = len(options) + 1
    end, log, joined = list(mate), [], set()
    cut, states = [], {(): 1}
    for step, v in enumerate(order, 1):
        here = sum(options[v][0], ())
        joined.update(here)
        frontier, cut = cut, [h for h in cut if h not in joined]
        cut += [mate[h] for h in here if mate[h] not in joined]
        key = itemgetter(*cut) if cut else lambda end: ()
        grown: dict[tuple, int] = {}
        for state, value in states.items():
            for h, e in zip(frontier, state):
                end[h] = e
            for s, pairs in enumerate(options[v]):
                shift = (_link(end, pairs, 0, log) * width + s) * width
                k = key(end)
                grown[k] = grown.get(k, 0) + (value << shift)
                _unlink(end, log, 0)
            if len(grown) > cap:
                raise CapExceededError(
                    f"refusing to keep {len(grown)} states at cut width {len(cut)} after {step} "
                    f"of {width - 1} vertices (cap is {cap} states; pass a larger cap to force it)"
                )
        states = grown
    (value,) = states.values()
    slots, mask = range(value.bit_length() // width + 1), (1 << width) - 1
    return {(i % width, i // width + start): c for i in slots if (c := value >> i * width & mask)}
