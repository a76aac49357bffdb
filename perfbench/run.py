#!/usr/bin/env python3
"""Benchmark for circuitnull: seeded workloads, each run a series of fresh processes.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 1 --out FILE

Run from the repository root (any directory works; paths are taken from this
file). NAME is one of the workloads in BENCHMARK.json, or ``all``.

A run first spawns a few set-up-only processes, then spawns worker
processes one at a time until ``--seconds`` have passed (at least two).
Each worker builds the seeded inputs, times the workload's requests and
checks every answer. With ``--trace 1`` untraced and traced workers
alternate; the traced ones wrap the library's layers (see layers.py).

For one workload the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``. A readable summary with ``failed_ratio`` and the run_s tail
comes before it. ``--out`` also writes every figure, the input properties
and a stamp of the machine to a JSON file.

Exit status: 0 when every answer is right, 1 when any request failed, 2 when
a worker could not run (for example without the ``src`` tree).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
MIN_RUNS = 2
# Seconds the worker's reference loop takes at the speed all times are
# scaled to: its median on the machine the baseline was measured on.
REFERENCE_S = 0.04
# Every run must end within 180 s; no worker may outlive this many seconds.
RUN_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, index: int, flags: list[str], limit: float) -> dict:
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(index), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, limit - start),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten runs beyond it, if there are enough runs."""
    kept = len(values) - 10
    if kept < 1:
        return None
    return {"percentile": 100.0 * kept / len(values), "value": sorted(values)[kept - 1]}


def speed(result: dict) -> float:
    """Factor that scales a worker's times to the reference speed."""
    return REFERENCE_S / statistics.mean(result["ref_s"])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    extra = ["--smoke"] if smoke else []
    probes = [spawn(workload, seed, i, ["--setup-only", *extra], limit) for i in range(SETUP_PROBES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while len(plain) < MIN_RUNS or time.monotonic() - start < seconds:
        # Worker i of a run gets input i: a run's median covers many inputs.
        plain.append(spawn(workload, seed, len(plain), extra, limit))
        if trace:
            traced.append(spawn(workload, seed, len(traced), ["--trace", *extra], limit))

    runs = plain + traced
    setups = probes + runs
    run_s = [r["run_s"] * speed(r) for r in plain]
    end_to_end = {
        "run_s": statistics.median(run_s),
        "cpu_s": statistics.median(r["cpu_s"] * speed(r) for r in plain),
        # Scaled by the reference loop timed right after set-up.
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["ref_s"][0] for r in setups),
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
    }
    unscaled = {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
    }
    per_layer = {}
    if trace:
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name == "trace.overhead_ratio":
                traced_s = statistics.median(r["run_s"] * speed(r) for r in traced)
                per_layer[name] = traced_s / end_to_end["run_s"]
            else:
                # A name a later refactor removed reads as 0, not as an error.
                scale = [speed(r) if name.endswith("self_s") else 1 for r in traced]
                per_layer[name] = statistics.median(
                    r["layers"].get(name, 0) * k for r, k in zip(traced, scale)
                )
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": workload,
        "seed": seed,
        "inputs": [r["inputs"] for r in plain],
        "runs": len(plain),
        "traced_runs": len(traced),
        "setups": len(setups),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "run_s_tail": tail(run_s),
        "end_to_end": end_to_end,
        "unscaled": unscaled,
        "per_layer": per_layer,
        "workers": [
            {k: r[k] for k in ("run_s", "cpu_s", "setup_s", "ref_s", "rss_kib")} for r in plain
        ],
    }


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def summary(spec: dict, res: dict) -> str:
    unit = units(spec)
    props = " ".join(f"{k}={v}" for k, v in res["inputs"][0].items())
    lines = [f"{res['workload']} seed={res['seed']} first input: {props}"]
    pct = res["run_s_tail"]
    spread = (
        f"p{pct['percentile']:.0f} {pct['value']:.4f} s"
        if pct else "no tail percentile below 11 runs"
    )
    notes = {
        "run_s": f"median of {res['runs']} runs; {spread}",
        "setup_s": f"median of {res['setups']} set-ups",
    }
    for name, value in res["end_to_end"].items():
        note = notes.get(name, "")
        if name in res["unscaled"]:
            note = f"unscaled {res['unscaled'][name]:.4f} s; {note}".rstrip("; ")
        lines.append(f"  {name:<14} {value:12.4f} {unit[name]:<5} {note}".rstrip())
    lines.append(
        f"  {'failed_ratio':<14} {res['failed_ratio']:12.4f} ratio "
        f"{res['failed']} of {res['attempted']} requests"
    )
    for name, value in res["per_layer"].items():
        lines.append(f"  {name:<48} {value:14.6g} {unit[name]}")
    return "\n".join(lines)


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    parser.add_argument("--out", type=Path, help="also write a stamped result file here")
    args = parser.parse_args(argv)

    load_before = os.getloadavg()[0]
    results = []
    try:
        for workload in names if args.workload == "all" else [args.workload]:
            res = measure(spec, workload, args.seed, args.seconds, bool(args.trace), args.smoke)
            print(summary(spec, res), flush=True)
            results.append(res)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    if args.out:
        stamp = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "git_sha": git_sha(),
            "loadavg_1min_before": load_before,
            "loadavg_1min_after": os.getloadavg()[0],
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"stamp": stamp, "seconds": args.seconds, "trace": args.trace, "results": results},
            indent=2,
        ) + "\n")

    failed = sum(res["failed"] for res in results)
    if args.workload != "all":
        (res,) = results
        unit = units(spec)
        metrics = res["per_layer"] if args.trace else res["end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": res["attempted"],
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
