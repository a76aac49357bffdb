"""Tests of the benchmark itself: smoke runs of every workload, and failure counting.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import circuitnull  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert "failed_ratio" in proc.stdout
    if workload == "cle" and trace == "1":
        # One rank per assignment, counted through partitions' own import of bit_rank.
        assert result["metrics"]["gf2.bit_rank.calls"]["value"] == 27


WRONG = {
    "cle": ("verify_extended_cle", lambda g, es, cap=None: circuitnull.SweepReport(1, ())),
    "subset": ("q_from_partitions", lambda *a, **k: circuitnull.MultiPoly.constant(1, ("y",))),
    "courcelle": ("courcelle_from_partitions", lambda *a, **k: circuitnull.MultiPoly.constant(1)),
    "small": ("orbit_count", lambda p: 0),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_stubbed_wrong_answer_counts_as_failed(workload, monkeypatch):
    name, stub = WRONG[workload]
    spec = WORKLOADS[workload]
    inputs = spec.build(random.Random(5), True)
    clean = worker.run_requests(spec, inputs)
    assert clean["failed"] == 0
    monkeypatch.setattr(circuitnull, name, stub)
    result = worker.run_requests(spec, inputs)
    assert result["failed"] >= 1
    assert set(result["request_s"]) == set(clean["request_s"])


def test_raising_request_counts_as_failed_and_keeps_its_time(monkeypatch):
    def refuse(*args, **kwargs):
        raise circuitnull.CapExceededError("refused")

    spec = WORKLOADS["subset"]
    inputs = spec.build(random.Random(5), True)
    monkeypatch.setattr(circuitnull, "q_nullity", refuse)
    result = worker.run_requests(spec, inputs)
    assert result["failed"] >= 1
    assert result["request_s"]["q_nullity"] >= 0


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cle", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
