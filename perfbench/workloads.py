"""Seeded inputs, timed requests and answer checks for each workload.

A workload has four parts:

- ``build(rng, smoke)`` makes the inputs from the seed. It runs before the
  timed section and counts toward set-up time.
- ``requests(inputs)`` lists the timed calls as ``(name, call)``. Each call
  receives the answers of the earlier requests, so one request can use
  another's result.
- ``check(inputs, answers)`` returns the names of requests whose answers are
  wrong, comparing against a second route or a value the benchmark computes
  itself. It runs after the timed section.
- ``describe(inputs)`` returns the input properties a gain may depend on.

Requests reach the library through ``circuitnull.<name>`` at call time, so
wrappers installed by the traced run are seen. Graphs come from the
benchmark's own configuration model, not the library's generator, so the
inputs for a seed stay fixed if the library changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import circuitnull as cn

# Vertex counts at full size and in smoke mode (the tests' tiny inputs). The
# full sizes are within every entry point's default cap.
SIZES = {
    "cle": (10, 3),
    "subset": (14, 4),
    "courcelle": (7, 3),
}
# small: per family, the sizes visited in a fixed order, with a seeded
# random instance at each size.
SMALL_CLE_N = ((1, 2, 3, 4, 5, 6) * 30, (1, 2, 3))
SMALL_POLY_N = ((2, 3, 4, 5, 6, 6) * 3, (1, 2))
SMALL_PERM_M = (tuple(range(2, 65)) * 6, tuple(range(2, 7)))


def configuration_pairs(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """Uniform pairing of the 4n half-edge slots of vertices 1..n."""
    slots = list(range(4 * n))
    rng.shuffle(slots)
    return [(str(slots[i] // 4 + 1), str(slots[i + 1] // 4 + 1)) for i in range(0, 4 * n, 2)]


def component_count(n: int, pairs: list[tuple[str, str]]) -> int:
    parent = list(range(n + 1))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[root(int(u))] = root(int(v))
    return len({root(v) for v in range(1, n + 1)})


def connected_pairs(n: int, rng: random.Random) -> list[tuple[str, str]]:
    while True:
        pairs = configuration_pairs(n, rng)
        if component_count(n, pairs) == 1:
            return pairs


def random_loops(vertices, rng: random.Random) -> frozenset[str]:
    return frozenset(v for v in vertices if rng.random() < 0.5)


def orbit_reference(image: tuple[int, ...]) -> int:
    seen = [False] * len(image)
    orbits = 0
    for start in range(len(image)):
        if not seen[start]:
            orbits += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = image[i] - 1
    return orbits


def graph_properties(g, es, h) -> dict[str, int]:
    return {
        "n": len(g.vertices),
        "components": len(es.circuits),
        "loops": len(h.loops),
        "interlace_edges": sum(bin(row).count("1") for row in h.adjacency_rows) // 2,
        "interlace_rank": cn.rank(cn.interlace_matrix(es)),
    }


def build_system(n: int, rng: random.Random) -> dict:
    """Connected seeded system with a seeded loop set (set-up of the large workloads)."""
    g = cn.from_edge_list(connected_pairs(n, rng))
    es = cn.euler_system(g)
    loops = random_loops(g.vertices, rng)
    return {"n": n, "g": g, "es": es, "loops": loops, "h": cn.interlace_graph(es, loops)}


# --- cle: one exhaustive extended Cohn-Lempel sweep ---------------------------


def cle_build(rng: random.Random, smoke: bool) -> dict:
    inputs = build_system(SIZES["cle"][smoke], rng)
    inputs["states"] = 3 ** inputs["n"]
    return inputs


def cle_requests(inputs: dict):
    g, es = inputs["g"], inputs["es"]
    return [("verify_extended_cle", lambda a: cn.verify_extended_cle(g, es))]


def cle_check(inputs: dict, answers: dict) -> set[str]:
    report = answers["verify_extended_cle"]
    return set() if report.checked == inputs["states"] and not report.failures else {
        "verify_extended_cle"
    }


# --- subset: the four 2^n evaluators on one system ----------------------------


def subset_build(rng: random.Random, smoke: bool) -> dict:
    inputs = build_system(SIZES["subset"][smoke], rng)
    inputs["states"] = 4 * 2 ** inputs["n"]
    return inputs


def subset_requests(inputs: dict):
    g, es, loops, h = (inputs[k] for k in ("g", "es", "loops", "h"))
    return [
        ("q_nullity", lambda a: cn.q_nullity(h)),
        ("q_two_variable", lambda a: cn.q_two_variable(h)),
        ("q_from_partitions", lambda a: cn.q_from_partitions(g, es, loops)),
        ("q2_from_partitions", lambda a: cn.q2_from_partitions(g, es, loops)),
    ]


def subset_check(inputs: dict, answers: dict) -> set[str]:
    failed = set()
    if answers["q_nullity"] != answers["q_from_partitions"]:
        failed |= {"q_nullity", "q_from_partitions"}
    if answers["q_two_variable"] != answers["q2_from_partitions"]:
        failed |= {"q_two_variable", "q2_from_partitions"}
    if answers["q_nullity"].evaluate({"y": 2}) != 2 ** inputs["n"]:
        failed.add("q_nullity")
    return failed


# --- courcelle: both routes of C(H) and its specialisation to q --------------


def courcelle_build(rng: random.Random, smoke: bool) -> dict:
    inputs = build_system(SIZES["courcelle"][smoke], rng)
    n, vertices = inputs["n"], inputs["g"].vertices
    inputs["states"] = 2 * 3 ** n
    bindings = {"u": cn.MultiPoly.variable("x") - 1, "v": cn.MultiPoly.variable("y") - 1}
    bindings.update({f"x_{v}": 1 for v in vertices})
    bindings.update({f"y_{v}": 0 for v in vertices})
    inputs["bindings"] = bindings
    return inputs


def courcelle_requests(inputs: dict):
    g, es, loops, h = (inputs[k] for k in ("g", "es", "loops", "h"))
    return [
        ("courcelle", lambda a: cn.courcelle(h)),
        ("courcelle_from_partitions", lambda a: cn.courcelle_from_partitions(g, es, loops)),
        ("substitute", lambda a: a["courcelle"].substitute(inputs["bindings"])),
    ]


def courcelle_check(inputs: dict, answers: dict) -> set[str]:
    failed = set()
    if answers["courcelle"] != answers["courcelle_from_partitions"]:
        failed |= {"courcelle", "courcelle_from_partitions"}
    q = answers["substitute"]
    if q != cn.q_two_variable(inputs["h"]) or q.substitute({"x": 2}) != cn.q_nullity(inputs["h"]):
        failed.add("substitute")
    return failed


# --- small: many small instances, construction and reduction included --------


def small_build(rng: random.Random, smoke: bool) -> dict:
    cle = [configuration_pairs(n, rng) for n in SMALL_CLE_N[smoke]]
    poly = [configuration_pairs(n, rng) for n in SMALL_POLY_N[smoke]]
    perms = []
    for m in SMALL_PERM_M[smoke]:
        image = list(range(1, m + 1))
        rng.shuffle(image)
        perms.append(tuple(image))
    states = sum(3 ** (len(p) // 2) for p in cle) + sum(4 * 4 ** (len(p) // 2) for p in poly)
    return {"cle": cle, "poly": poly, "perms": perms, "states": states}


def _small_cle(pairs):
    g = cn.from_edge_list(pairs)
    return cn.verify_extended_cle(g, cn.euler_system(g))


def _small_poly(pairs):
    """Both routes of q_N and q for every loop set of one system."""
    g = cn.from_edge_list(pairs)
    es = cn.euler_system(g)
    n = len(g.vertices)
    out = []
    for mask in range(1 << n):
        loops = {g.vertices[i] for i in range(n) if (mask >> i) & 1}
        h = cn.interlace_graph(es, loops)
        out.append((
            cn.q_nullity(h), cn.q_from_partitions(g, es, loops),
            cn.q_two_variable(h), cn.q2_from_partitions(g, es, loops),
        ))
    return out


def _small_perm(image):
    p = cn.Permutation(image)
    return cn.verify_permutation_reduction(p), cn.orbit_count(p)


def small_requests(inputs: dict):
    reqs = []
    for i, pairs in enumerate(inputs["cle"]):
        reqs.append((f"cle.{i}", lambda a, pairs=pairs: _small_cle(pairs)))
    for i, pairs in enumerate(inputs["poly"]):
        reqs.append((f"poly.{i}", lambda a, pairs=pairs: _small_poly(pairs)))
    for i, image in enumerate(inputs["perms"]):
        reqs.append((f"perm.{i}", lambda a, image=image: _small_perm(image)))
    return reqs


def small_check(inputs: dict, answers: dict) -> set[str]:
    failed = set()
    for i, pairs in enumerate(inputs["cle"]):
        report = answers[f"cle.{i}"]
        if report.checked != 3 ** (len(pairs) // 2) or report.failures:
            failed.add(f"cle.{i}")
    for i, pairs in enumerate(inputs["poly"]):
        rows = answers[f"poly.{i}"]
        if len(rows) != 2 ** (len(pairs) // 2) or any(a != b or c != d for a, b, c, d in rows):
            failed.add(f"poly.{i}")
    for i, image in enumerate(inputs["perms"]):
        report, orbits = answers[f"perm.{i}"]
        if not report.ok or report.orbits != orbits or orbits != orbit_reference(image):
            failed.add(f"perm.{i}")
    return failed


def small_describe(inputs: dict) -> dict:
    totals = {"instances": len(inputs["cle"]) + len(inputs["poly"]) + len(inputs["perms"])}
    for pairs in inputs["cle"] + inputs["poly"]:
        g = cn.from_edge_list(pairs)
        es = cn.euler_system(g)
        for key, value in graph_properties(g, es, cn.interlace_graph(es)).items():
            totals[key] = totals.get(key, 0) + value
    totals["perm_elements"] = sum(len(image) for image in inputs["perms"])
    totals["states"] = inputs["states"]
    return totals


def system_describe(inputs: dict) -> dict:
    props = graph_properties(inputs["g"], inputs["es"], inputs["h"])
    props["states"] = inputs["states"]
    return props


@dataclass(frozen=True)
class Workload:
    build: Callable
    requests: Callable
    check: Callable
    describe: Callable


WORKLOADS = {
    "cle": Workload(cle_build, cle_requests, cle_check, system_describe),
    "subset": Workload(subset_build, subset_requests, subset_check, system_describe),
    "courcelle": Workload(courcelle_build, courcelle_requests, courcelle_check, system_describe),
    "small": Workload(small_build, small_requests, small_check, small_describe),
}
