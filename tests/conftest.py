"""Shared hypothesis strategies for random words, graphs, and assignments."""

from __future__ import annotations

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from circuitnull.graphs import from_double_occurrence_words, from_edge_list
from circuitnull.partitions import Transition

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def dow_words(draw, min_vertices: int = 1, max_vertices: int = 6):
    """A single double occurrence word on labels 1..n, n drawn small."""
    n = draw(st.integers(min_vertices, max_vertices))
    letters = [str(i + 1) for i in range(n)] * 2
    return tuple(draw(st.permutations(letters)))


@st.composite
def euler_systems(draw, max_vertices: int = 6, max_components: int = 2):
    """(Multigraph, EulerSystem) built from 1-2 disjoint random words."""
    ncomp = draw(st.integers(1, max_components))
    words = []
    base = 0
    for _ in range(ncomp):
        budget = max_vertices - base
        if budget < 1:
            break
        n = draw(st.integers(1, budget))
        letters = [str(base + i + 1) for i in range(n)] * 2
        words.append(tuple(draw(st.permutations(letters))))
        base += n
    return from_double_occurrence_words(words)


@st.composite
def multigraphs(draw, max_vertices: int = 5):
    """Configuration-model 4-regular multigraph (loops/parallels/disconnection)."""
    n = draw(st.integers(1, max_vertices))
    slots = draw(st.permutations(list(range(4 * n))))
    pairs = [
        (str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1))
        for i in range(0, 4 * n, 2)
    ]
    return from_edge_list(pairs)


def least_by_search(seq, step):
    """Least sequence reachable from seq by rotating by ``step`` and reversing."""
    start = tuple(seq)
    seen, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for nxt in (s[step:] + s[:step], s[::-1]):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return min(seen)


@st.composite
def assignments_for(draw, vertices):
    choices = st.sampled_from((Transition.FOLLOW, Transition.CROSS, Transition.FLIP))
    return {v: draw(choices) for v in vertices}


def random_directed_euler_system(g, is_out, rng):
    """A random Euler system consistent with a fixed orientation.

    Same digraph as the orientation, different circuit: Hierholzer with
    random tie-breaking instead of the library's smallest-id rule.
    """
    from circuitnull.graphs import EulerSystem

    used = [False] * g.num_half_edges
    outs_at = {}
    for h in range(g.num_half_edges):
        if is_out[h]:
            outs_at.setdefault(g.vertex_of[h], []).append(h)
    circuits = []
    for start in range(g.num_half_edges):
        if used[start] or not is_out[start]:
            continue
        used[start] = used[g.mate[start]] = True
        stack = [start]
        departures = []
        while stack:
            v = g.vertex_of[g.mate[stack[-1]]]
            options = [h for h in outs_at.get(v, ()) if not used[h]]
            if not options:
                departures.append(stack.pop())
                continue
            h = rng.choice(options)
            used[h] = used[g.mate[h]] = True
            stack.append(h)
        departures.reverse()
        seq = []
        for d in departures:
            seq.extend((d, g.mate[d]))
        circuits.append(tuple(seq))
    return EulerSystem(g, tuple(circuits))
