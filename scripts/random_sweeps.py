#!/usr/bin/env python3
"""Randomized verification sweeps, sized from the command line.

Runs four experiment families over seeded random inputs and prints one
summary line per family:

  circuits     exhaustive |P| = nullity(I_P) + c(G) sweeps on random
               4-regular multigraphs (all 3^n assignments each)
  polynomials  q_N / q identities between the nullity-sum and the traced
               circuit-partition routes, over all loop sets, and the matrix
               transfer-matrix DP itself (which q_N and q run only above ten
               vertices) against the 2^n nullity sweep, so three routes meet
               at every loop set; and, at one seeded loop set of each system
               with at most nine vertices, Courcelle's C(H) by both routes
               and its specialisation to q
  orbits       Cohn-Lempel orbit counts and the pair-digraph reduction
               against the brute-force cycle counter
  reach        the q_N / q identities on connected graphs with 15-18 vertices
               and one random loop set each, past the 2^n sweeps' default cap:
               two transfer matrices, the trace route's and the matrix route's
               (its vertex cap raised); q(H; x, x) = x^n on each route's q
               by itself, since the two share their DP driver; q_N(H; -1) =
               (-1)^n (-2)^nu(A + I) on each route's q_N by itself; and, where
               H has a loop, q_N(H) = q_N(H - a) + q_N(H^a - a) at its first
               looped vertex a on the matrix route alone

Each family draws from its own random stream, seeded by --seed and the family's
name, so sizing one family changes no other family's inputs.

Exit status is nonzero if any comparison fails (never expected).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from collections import Counter

from circuitnull import (
    LoopedGraph,
    MultiPoly,
    Permutation,
    compose_cycle_with_transpositions,
    courcelle,
    courcelle_from_partitions,
    euler_system,
    interlace_graph,
    orbit_count,
    orbit_count_via_nullity,
    q2_from_partitions,
    q_from_partitions,
    q_nullity,
    q_two_variable,
    random_regular_multigraph,
    verify_extended_cle,
    verify_permutation_reduction,
)
from circuitnull.gf2 import bit_rank
from circuitnull.partitions import _matrix_nullities
from circuitnull.sweep import nullity_histogram


def sweep_circuits(rng: random.Random, graphs: int, max_vertices: int) -> tuple[int, int]:
    checked = failures = 0
    for _ in range(graphs):
        g = random_regular_multigraph(rng.randint(1, max_vertices), rng)
        report = verify_extended_cle(g, euler_system(g))
        checked += report.checked
        failures += len(report.failures)
    return checked, failures


def specialisation(vertices) -> dict:
    """The bindings that take Courcelle's C(H) to q(H; x, y)."""
    bindings = {"u": MultiPoly.variable("x") - 1, "v": MultiPoly.variable("y") - 1}
    bindings.update({f"x_{v}": 1 for v in vertices})
    bindings.update({f"y_{v}": 0 for v in vertices})
    return bindings


def sweep_polynomials(
    rng: random.Random, systems: int, max_vertices: int, picks: random.Random
) -> tuple[int, int]:
    checked = failures = 0
    for _ in range(systems):
        g = random_regular_multigraph(rng.randint(1, max_vertices), rng)
        es = euler_system(g)
        n = len(g.vertices)
        chosen = picks.randrange(1 << n)  # the loop set C(H) is checked at, up to nine vertices
        for mask in range(1 << n):
            loops = {g.vertices[i] for i in range(n) if (mask >> i) & 1}
            h = interlace_graph(es, loops)
            checked += 3
            if q_from_partitions(g, es, loops) != q_nullity(h):
                failures += 1
            q = q_two_variable(h)
            if q2_from_partitions(g, es, loops) != q:
                failures += 1
            rows = h.matrix.rows
            nus = _matrix_nullities(rows, 2, n, "subsets")
            sweep = Counter(zip(map(int.bit_count, range(1 << n)), nus))
            if nullity_histogram(rows, h.cut_order, 1 << n) != sweep:
                failures += 1
            if mask == chosen and n <= 9:
                checked += 2
                c = courcelle(h)
                if c != courcelle_from_partitions(g, es, loops):
                    failures += 1
                if c.substitute(specialisation(g.vertices)) != q:
                    failures += 1
    return checked, failures


def local_complement(h: LoopedGraph, a: int) -> LoopedGraph:
    """H^a on a vertex index a: every edge uv, u != v, and every loop at u, for u, v in N(a),
    toggled; a keeps its label."""
    na = h.adjacency_rows[a]
    rows = [row ^ na & ~(1 << u) if na >> u & 1 else row for u, row in enumerate(h.adjacency_rows)]
    toggled = {v for u, v in enumerate(h.vertices) if na >> u & 1}
    return LoopedGraph(h.vertices, tuple(rows), h.loops ^ toggled)


def sweep_reach(rng: random.Random, graphs: int) -> tuple[int, int]:
    checked = failures = 0
    x = MultiPoly.variable("x")
    for _ in range(graphs):
        n = rng.randint(15, 18)
        es = None
        while es is None or len(es.circuits) != 1:  # connected graphs only
            g = random_regular_multigraph(n, rng)
            es = euler_system(g)
        loops = {v for v in g.vertices if rng.random() < 0.5}
        h = interlace_graph(es, loops)
        checked += 6
        qn, traced_qn = q_nullity(h, cap=n), q_from_partitions(g, es, loops)
        if traced_qn != qn:
            failures += 1
        # Balister-Bollobas-Cutler-Pebody: q_N(H; -1) = (-1)^n (-2)^nu(A + I), checked on each
        # route by itself with one GF(2) rank of H's matrix, loops on its diagonal.
        nu = n - bit_rank([row ^ 1 << i for i, row in enumerate(h.matrix.rows)])
        for q in qn, traced_qn:
            if q.evaluate({"y": -1}) != (-1) ** n * (-2) ** nu:
                failures += 1
        # Aigner-van der Holst at the first looped vertex a: q_N(H) = q_N(H - a) + q_N(H^a - a).
        # It draws nothing from rng, so no other check's input depends on it. No loop: no check.
        a = next((v for v in g.vertices if v in loops), None)
        if a is not None:
            checked += 1
            rest = set(g.vertices) - {a}
            local_a = local_complement(h, g.vertices.index(a)).induced(rest)
            if q_nullity(h.induced(rest), cap=n) + q_nullity(local_a, cap=n) != qn:
                failures += 1
        traced, matrix = q2_from_partitions(g, es, loops), q_two_variable(h, cap=n)
        if traced != matrix:
            failures += 1
        # q(H; x, x) sums (x - 1)^|S| over the subsets S, which is x^n whatever the nullities:
        # so a fault in the |S| slots of the shared DP driver fails both routes, not the match.
        for q in traced, matrix:
            if q.substitute({"y": x}) != x**n:
                failures += 1
    return checked, failures


def sweep_orbits(rng: random.Random, trials: int, max_size: int) -> tuple[int, int]:
    checked = failures = 0
    for _ in range(trials):
        m = rng.randint(1, max_size)
        elements = list(range(1, m + 1))
        rng.shuffle(elements)
        k = rng.randint(0, m // 2)
        transpositions = [(elements[2 * i], elements[2 * i + 1]) for i in range(k)]
        composed = compose_cycle_with_transpositions(m, transpositions)
        checked += 1
        if orbit_count_via_nullity(m, transpositions) != orbit_count(composed):
            failures += 1
        image = list(range(1, m + 1))
        rng.shuffle(image)
        p = Permutation(tuple(image))
        report = verify_permutation_reduction(p)
        checked += 1
        if not (report.ok and report.orbits == orbit_count(p)):
            failures += 1
    return checked, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--graphs", type=int, default=100)
    parser.add_argument("--systems", type=int, default=25)
    parser.add_argument("--reach", type=int, default=4)
    parser.add_argument("--trials", type=int, default=250)
    parser.add_argument("--max-vertices", type=int, default=6)
    parser.add_argument("--max-size", type=int, default=14)
    args = parser.parse_args()

    total_failures = 0
    for name, runner, kwargs in (
        ("circuits", sweep_circuits, {"graphs": args.graphs, "max_vertices": args.max_vertices}),
        # The loop sets C(H) is checked at come from their own stream, which moves no system.
        ("polynomials", sweep_polynomials, {
            "systems": args.systems, "max_vertices": args.max_vertices,
            "picks": random.Random(f"{args.seed}/courcelle"),
        }),
        ("orbits", sweep_orbits, {"trials": args.trials, "max_size": args.max_size}),
        ("reach", sweep_reach, {"graphs": args.reach}),
    ):
        start = time.perf_counter()
        checked, failures = runner(random.Random(f"{args.seed}/{name}"), **kwargs)
        elapsed = time.perf_counter() - start
        total_failures += failures
        status = "ok" if failures == 0 else f"{failures} FAILURES"
        print(f"{name:12s} {checked:8d} checks  {elapsed:7.2f}s  {status}")
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
