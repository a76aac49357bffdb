"""One benchmark process: build a workload's inputs, time its requests, check them.

Usage: python3 perfbench/worker.py WORKLOAD SEED INDEX [--trace] [--smoke] [--setup-only]

The inputs come from the run's SEED and the worker's INDEX within the run,
so each worker of a run gets other inputs of the same workload, and the same
SEED and INDEX always give the same inputs.

It imports circuitnull from the ``src`` directory beside ``perfbench`` and
refuses to run against any other copy. It prints one JSON object:

- ``ready``: CLOCK_MONOTONIC when the inputs were built, so the parent can
  compute set-up time from the moment it spawned this process;
- ``ref_s``: seconds for a fixed pure-Python loop, timed right after set-up
  and again after the requests, so the parent can scale times to one
  machine speed;
- ``run_s`` and ``cpu_s``: wall and CPU seconds of the timed requests;
- ``rss_kib``: peak resident set size of this process and its children;
- ``attempted`` and ``failed``: a request fails if it raises or its answer
  is wrong;
- ``layers``: call counts and self times, with ``--trace``;
- ``inputs``: the input properties.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_ITERATIONS = 250_000


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs right now."""
    rows = list(range(64))
    acc = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        acc ^= (rows[i & 63] << (i & 7)) & 0xFFFF
        if acc & 1:
            acc += i
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """CPU time of this process's threads plus any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_requests(workload, inputs: dict, tracer=None) -> dict:
    """Time every request, then check the answers; a failed request keeps its time."""
    answers: dict = {}
    raised: set[str] = set()
    seconds: dict[str, float] = {}
    make_calls: dict[str, int] = {}
    make = "polynomials.MultiPoly.make"
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for name, call in workload.requests(inputs):
        before = tracer.calls.get(make, 0) if tracer else 0
        t0 = time.perf_counter()
        try:
            answers[name] = call(answers)
        except Exception as exc:  # a request that raises is a failed request
            raised.add(name)
            print(f"request {name} raised {exc!r}", file=sys.stderr)
        seconds[name] = time.perf_counter() - t0
        if tracer:
            make_calls[name] = tracer.calls.get(make, 0) - before
    run_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu0
    layers = tracer.snapshot() if tracer else {}
    try:
        wrong = workload.check(inputs, answers)
    except Exception as exc:  # answers that cannot be compared count as wrong
        print(f"answer check raised {exc!r}", file=sys.stderr)
        wrong = set(seconds) - raised
    if tracer:
        layers["gf2.rank_calls_per_state"] = layers.get("gf2.bit_rank.calls", 0) / inputs["states"]
        # make() calls inside the specialisation of C(H), per term of C(H).
        terms = len(getattr(answers.get("courcelle"), "terms", ()))
        inside = make_calls.get("substitute", 0)
        layers["polynomials.make_calls_per_term"] = inside / terms if terms else 0.0
    return {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "request_s": seconds,
        "attempted": len(seconds),
        "failed": len(raised | wrong),
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("index", type=int)
    parser.add_argument("--trace", action="store_true", help="wrap the library's layers")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-only", action="store_true", help="stop once inputs are built")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import circuitnull

    if Path(circuitnull.__file__).resolve().parent != SRC / "circuitnull":
        print(f"circuitnull imported from {circuitnull.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from layers import LayerTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(random.Random(f"{args.seed}/{args.index}"), args.smoke)
    result = {"ready": time.monotonic(), "ref_s": [reference_s()]}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = LayerTracer()
            tracer.install()
        result.update(run_requests(workload, inputs, tracer))
        result["ref_s"].append(reference_s())
        result["inputs"] = workload.describe(inputs)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["rss_kib"] = max(self_kib, child_kib)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
