"""The sweep engines: nullities and circuit counts per vertex state, and (|S|, nu) histograms.

``nullities`` and ``circuit_counts`` pick one letter per vertex from a 2- or 3-letter alphabet
and return one signed byte per state, in ``itertools.product`` order (vertex 0 most
significant). Each walks a tree of prefixes, undoing each option on return, and memoizes the
subtrees below the walk under the cut's state, as bytes moved into place by ``translate``. In
``nullities`` (whose "off" vertex has the unit row e_i) that state is a kernel of tag sums
projected onto the vertices left: the last nine if the sweep has more than 3^9 states, else the
last three, whose graph-free table serves every sweep. ``circuit_counts`` links passage pairs on
an undo log, may count from -c(G), and memoizes the last seven vertices under the cut's pairing.

``circuit_histogram`` and ``nullity_histogram`` visit no states: ``_transfer`` joins the
vertices in an order and keeps the counts by |S| and nu per state of the cut, a pairing of its
open ends or the tag kernel of ``nullities`` over all unjoined vertices, stepped by ``_joins``.
The trace engines never see a matrix, so the routes stay independent; ``circuitnull.partitions``
passes them the graph's cut table (``graphs._cuts``) and runs every other guard.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from functools import cache, partial
from operator import itemgetter
from typing import Callable, Sequence

from .errors import CapExceededError

Pairing = Sequence[tuple[int, int]]
Options = Sequence[Sequence[Pairing]]  # per vertex, its candidate pairings


def _step(kernel: tuple[int, ...], t: int) -> tuple[int, tuple[int, ...]]:
    """1 if t lies in span(kernel), else 0, and the span's reduced echelon basis, ascending."""
    for w in kernel:  # each leading bit lies in one basis row only
        t ^= w if t >> w.bit_length() - 1 & 1 else 0
    if not t:
        return 1, kernel
    rows = [w ^ t if w >> t.bit_length() - 1 & 1 else w for w in kernel]
    insort(rows, t)
    return 0, tuple(rows)


def _joins(kernel: tuple[int, ...], bits: int, letters: int) -> list:
    """Per letter, the kernel left below bit ``bits`` and the nullity added, flat: kernel, nu, ...

    The letters are the first ``letters`` of e_v, A_v and their sum, tagged by the top two bits.
    Only rows that lead there reduce the tags; the rows below span the kernel of the vertices
    after. A tag reduced to 0 is a dependent row; one reduced to lower tags alone joins that kernel.
    """
    cut = bisect_left(kernel, 1 << bits)
    low, first, second = kernel[:cut], 1 << bits, 2 << bits
    for w in kernel[cut:]:
        first ^= w if first >> w.bit_length() - 1 & 1 else 0
        second ^= w if second >> w.bit_length() - 1 & 1 else 0
    out = []
    for t in (first, second, first ^ second)[:letters]:
        out += low if not t or t >> bits else _step(low, t)[1], 0 if t else 1
    return out


def _subtree(memo: dict, offset: int, kernel: tuple[int, ...], shape: tuple[int, ...]) -> bytes:
    """``offset`` plus the dependent rows of the vertices in ``shape``, given their kernel.

    One byte per state in product order, memoized under (shape, kernel): in ``memo`` for one
    sweep above the last three vertices, and in ``_LEAVES`` for every sweep below.
    """
    table = memo if len(shape) > 3 else _LEAVES
    values = table.get(key := (shape, kernel))
    if values is None:
        joins, rest, parts = _joins(kernel, 2 * len(shape) - 2, shape[0]), shape[1:], []
        for i in range(0, len(joins), 2):  # a plain loop: a comprehension cost cle 10% on 3.11
            parts.append(_subtree(memo, joins[i + 1], joins[i], rest))
        values = table[key] = b"".join(parts)
    if offset > 127 - len(shape) and offset + max(values) > 127:
        raise OverflowError("a nullity passes 127")
    return values.translate(_SHIFTS[offset]) if offset else values


_LEAVES: dict[tuple, bytes] = {((), ()): b"\0"}  # no graph data: 2,825 kernels per shape
_step6 = cache(_step)  # the walk above a leaf: at most 2,825 kernels * 64 tag sums


def nullities(options: Sequence[Sequence[int]]) -> array:
    """GF(2) nullity of every n x n matrix taking row i from ``options[i]``.

    Rows are bit-packed (bit j is column j); a vertex has at most three rows, and a third
    is the sum of the first two (as e_i, A_i and A_i + e_i are). One signed byte per state,
    in product order over the options; no rows at all give one nullity, 0. OverflowError
    if a nullity passes 127. A sweep of more than 3^9 states walks all but its last k = 9
    vertices, and any other all but its last k = min(3, n). The rows of the k vertices below
    carry tags, and ``_subtree`` takes their values under the kernel: the tag sums whose rows
    lie in the span of the rows above, projected onto the vertices left. A sweep nests at
    most n + 20 calls.
    """
    n = len(options)
    k = 9 if math.prod(map(len, options)) > 3**9 else min(3, n)
    walk, shape, memo = n - k, tuple(map(len, options[n - k :])), {}
    # Rows move up 2k bits. Below them the first two rows of vertex walk + j carry the tags
    # 1 << 2(k-1-j) and 2 << 2(k-1-j), so a reduction also sums the tags of the rows it used;
    # they lead as one-option vertices, so they enter the basis once per sweep.
    top = 1 << 2 * k
    rows = [(v * top | t << 2 * (n - 1 - j),) for j in range(walk, n)
            for v, t in zip(options[j], (1, 2))]
    rows += [[v * top for v in opts] for opts in options[:walk]]
    step = _step6 if k <= 3 else _step
    pivots = [0] * (n + 2 * k)  # pivots[b]: a basis row whose highest set bit is b, or 0
    out = array("b")

    def visit(depth: int, c: int, kernel: tuple[int, ...]) -> None:
        # c: the dependent prefix rows above depth; kernel: the reduced echelon basis of the
        # tag sums whose tagged rows sum into the span of the prefix rows.
        if depth == len(rows):
            out.frombytes(_subtree(memo, c, kernel, shape))
            return
        for v in rows[depth]:
            while v >= top:
                b = v.bit_length() - 1
                w = pivots[b]
                if not w:
                    pivots[b] = v
                    visit(depth + 1, c, kernel)
                    pivots[b] = 0
                    break
                v ^= w
            else:  # a row that reduces to a tag sum: dependent iff the sum lies in the kernel
                dep, grown = step(kernel, v)
                visit(depth + 1, c + dep, grown)

    try:
        visit(0, 0, ())
    finally:  # visit's cell refers to it: free the walk and memo now, not at a cyclic collection
        del visit
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


_SHIFTS = [ident[c:] + ident[:c] for ident in [bytes(range(256))] for c in range(256)]  # b -> b + c


def _far_ends(cut: Sequence[int]) -> Callable:
    """Read the far ends of the cut's half-edges from ``end``, a DP state or memo key."""
    return itemgetter(*cut) if cut else lambda end: ()


def circuit_counts(mate: Sequence[int], options: Options, start: int, cuts: Sequence) -> array:
    """Closed curves plus ``start``, for every choice of one pairing per vertex.

    ``options[i]`` lists the candidate passage pairings at vertex i, each as its two pairs of
    half-edges; a curve alternates edge steps (h -> mate[h]) and passages. A pair (h, k) closes a
    curve if h and k end one open strand, and otherwise links the strands' far ends. The curves
    closed in the last j <= 7 vertices depend only on how the earlier ones paired the cut's w <= 4j
    half-edges (theirs, with joined mates), and are memoized under its far ends, one bytes object
    per key (no copy is shared across keys): at most min(3^(n-j), (w-1)!!) subtrees of 3^j bytes
    per j, so (4j-1)!! * 3^j bytes per j <= 3 (0.3 MB in all) and 3^n per j >= 4. One signed byte
    per state, in product order, shifted by ``start`` (OverflowError past -128..127). ``cuts`` is
    the ``graphs._cuts`` table of this vertex order.
    """
    n = len(options)
    top = max(0, n - 7)  # vertex top onward: memoized subtrees; above it, every prefix
    keys = [_far_ends(cut) for cut in cuts[top:]]
    memos: list[dict] = [{} for _ in range(top, n)] + [{(): b"\0"}]  # no vertex: no curve
    end = list(mate)  # end[h]: far end of the open strand at h
    log = []  # (a, old end[a], b, old end[b]) per link, oldest first
    out = array("b")

    def subtree(depth: int) -> bytes:
        # The curves closed at vertices depth.. per state of theirs, from the cut's pairing.
        memo, key = memos[depth - top], keys[depth - top](end)
        values = memo.get(key)
        if values is None:
            parts, size = [], len(log)
            for pairs in options[depth]:  # linked in place, then undone
                closed = _link(end, pairs, 0, log)
                parts.append(subtree(depth + 1).translate(_SHIFTS[closed]))
                _unlink(end, log, size)
            values = memo[key] = b"".join(parts)
        return values

    def visit(depth: int, c: int) -> None:
        # c: start plus the curves closed above depth; states come in product order.
        if depth == top:
            values = subtree(depth)
            if not -128 <= c <= 127 - 2 * (n - top):  # then some state may leave the byte
                if not -128 <= c + min(values) <= c + max(values) <= 127:
                    raise OverflowError("a state's value leaves -128..127")
            out.frombytes(values.translate(_SHIFTS[c & 255]))
            return
        size = len(log)
        for pairs in options[depth]:  # linked in place, then undone
            visit(depth + 1, _link(end, pairs, c, log))
            _unlink(end, log, size)

    try:
        visit(0, start)
    finally:  # as in nullities
        del subtree, visit
    return out


def _transfer(joins: Sequence, first: tuple, start: int, cap: int, cut: str) -> dict:
    """(|S|, nu + start) -> number of subsets S: the DP driver of both histogram engines.

    The DP starts from the one state ``first`` and takes one join per vertex, n in all. A join
    takes a state to its key and nu added, off S then in S. A state's value is one int of slots
    nu * (n + 1) + |S|, n + 1 bits wide (no count exceeds 2^n): one shift takes a letter, one add
    merges two states. A step raises once a source state leaves it over ``cap`` states, naming
    the longest key's length as the ``cut`` ("cut width" or "kernel dimension").
    """
    n, states = len(joins), {first: 1}
    width = n + 1
    for step, join in enumerate(joins, 1):
        grown: dict[tuple, int] = {}
        for state, value in states.items():
            off, nu_off, on, nu_on = join(state)
            grown[off] = grown.get(off, 0) + (value << nu_off * width * width)
            grown[on] = grown.get(on, 0) + (value << (nu_on * width + 1) * width)
            if len(grown) > cap:
                raise CapExceededError(
                    f"refusing to keep {len(grown)} states at {cut} {max(map(len, grown))} after "
                    f"{step} of {n} vertices (cap is {cap} states; pass a larger cap to force it)"
                )
        states = grown
    (value,) = states.values()
    slots, mask = range(value.bit_length() // width + 1), (1 << width) - 1
    return {(i % width, i // width + start): c for i in slots if (c := value >> i * width & mask)}


def circuit_histogram(
    mate: Sequence[int], options: Options, start: int, cap: int, cuts: Sequence
) -> dict[tuple[int, int], int]:
    """(|S|, closed curves + start) -> number of states S, joining the vertices as given.

    ``options[i]`` is vertex i's pairing off S, then in S. A DP state is the far ends of the
    cut's half-edges, loaded into ``end`` to join a vertex; ``cuts`` is as in ``circuit_counts``.
    """
    end, log, joins = list(mate), [], []
    for d, (off, on) in enumerate(options):

        def join(state, frontier=cuts[d], key=_far_ends(cuts[d + 1]), off=off, on=on):
            for h, e in zip(frontier, state):
                end[h] = e
            nu_off = _link(end, off, 0, log)
            off_key = key(end)
            _unlink(end, log, 0)
            nu_on = _link(end, on, 0, log)
            on_key = key(end)
            _unlink(end, log, 0)
            return off_key, nu_off, on_key, nu_on

        joins.append(join)
    return _transfer(joins, (), start, cap, "cut width")


def nullity_histogram(rows: Sequence[int], order: Sequence[int], cap: int) -> dict:
    """(|S|, nullity of A[S]) -> number of subsets S of a symmetric matrix, joining in ``order``.

    nu(A[S]) is the nullity of the n x n matrix with row e_v off S and A_v in S. Vertex order[t]
    tags those two rows with bits 2(n-1-t) and 2(n-1-t) + 1, and a DP state is the kernel that
    ``nullities`` memoizes on: the tag sums of the unjoined vertices whose rows sum into the
    span of the rows S chose at the joined ones, in reduced echelon form. The first is the
    kernel of all 2n tagged rows, spanned by A_v plus the e_u that sum to it, for each v.
    """
    n, kernel = len(rows), ()
    tag = {v: 2 * (n - 1 - t) for t, v in enumerate(order)}
    for v in order:
        units = sum(1 << tag[u] for u in range(n) if rows[v] >> u & 1)  # the e_u summing to A_v
        kernel = _step(kernel, units | 2 << tag[v])[1]
    joins = [partial(_joins, bits=tag[v], letters=2) for v in order]
    return _transfer(joins, kernel, 0, cap, "kernel dimension")
