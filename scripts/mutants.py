#!/usr/bin/env python3
"""Mutation gate for the two routes of the sweep engines.

Each entry in MUTANTS is one fault in one route: a name, a file, an exact old text that
must occur exactly once in that file, and the new text that replaces it. For each entry the
script copies src/, tests/ and scripts/ into a temporary directory, applies the entry there
and runs ``pytest -x -q tests/test_sweep.py`` (hypothesis seeded, so a run is repeatable).
If the tests pass, an entry that faults code the histogram DPs run also runs one
``random_sweeps.py`` slice. A mutant is killed if a check fails.

Exit status is 1 if any mutant survives, or if any old text does not occur exactly once; all
old texts are checked before any mutant runs. So a refactor of a listed line must update its
entry, and the update shows in the same diff. It also exits 1 if the unmutated copy fails
either check, which it runs first.

  python scripts/mutants.py    # about a minute on two cores

It mutates copies of the tree it sits in, never the tree itself.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

SWEEP = "src/circuitnull/sweep.py"
GRAPHS = "src/circuitnull/graphs.py"
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "--hypothesis-seed=0", "tests/test_sweep.py",
]
SLICE = [
    sys.executable, "scripts/random_sweeps.py",
    "--seed", "1", "--graphs", "0", "--systems", "3", "--trials", "0", "--reach", "4",
]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    dp: bool  # also run the random_sweeps.py slice


MUTANTS = [
    Mutant("link: a closed curve not counted", SWEEP,
           "            c += 1\n", "            c += 0\n", True),
    Mutant("step: a dependent row not counted", SWEEP,
           "        return 1, kernel\n", "        return 0, kernel\n", True),
    Mutant("joins: letters 0 and 1 swapped", SWEEP,
           "(first, second, first ^ second)[:letters]",
           "(second, first, first ^ second)[:letters]", True),
    Mutant("joins: the second tag one bit too high", SWEEP,
           "1 << bits, 2 << bits\n", "1 << bits, 4 << bits\n", True),
    Mutant("cut: joined half-edges kept", GRAPHS,
           "for k in here) if h not in joined))", "for k in here)))", True),
    Mutant("transfer: an in-letter adds no |S|", SWEEP,
           "(value << (nu_on * width + 1) * width)", "(value << (nu_on * width) * width)", True),
    Mutant("transfer: the off-letter's nu dropped", SWEEP,
           "(value << nu_off * width * width)", "(value << 0 * width * width)", True),
    Mutant("transfer: the in-letter's nu dropped", SWEEP,
           "(value << (nu_on * width + 1) * width)", "(value << (0 * width + 1) * width)", True),
    # A key without one far end is no fault: the open strands pair the cut's half-edges
    # among themselves, so the other far ends determine it.
    Mutant("circuit_counts: a memo key of every other far end", SWEEP,
           "keys = [_far_ends(cut) for cut", "keys = [_far_ends(cut[::2]) for cut", False),
    Mutant("nullities: a pivot not undone", SWEEP,
           "                    pivots[b] = 0\n", "                    pass\n", False),
]


ROOT = Path(__file__).resolve().parent.parent


def stale() -> list[str]:
    """One line per entry whose old text does not occur exactly once in its file."""
    lines = []
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            lines.append(f"stale entry {m.name!r}: its old text occurs {found} times in {m.path}")
    return lines


def killed_by(mutant: Mutant | None) -> str | None:
    """The first check that fails on a copy of the tree with ``mutant`` applied, else None.

    With no mutant, both checks run on the copy as it is.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if mutant:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        checks = (("pytest", PYTEST), ("random_sweeps", SLICE))
        for label, command in checks if mutant is None or mutant.dp else checks[:1]:
            run = subprocess.run(command, cwd=copy, env=env, capture_output=True)
            if run.returncode:
                return label
    return None


def main() -> int:
    problems = stale()
    if problems:
        print(*problems, sep="\n", file=sys.stderr)
        return 1
    if check := killed_by(None):  # else a check that fails for any reason would kill every mutant
        print(f"the unmutated tree fails {check}, so no mutant can be judged", file=sys.stderr)
        return 1
    survivors = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        check = killed_by(mutant)
        survivors += check is None
        verdict = f"killed by {check}" if check else "SURVIVED"
        print(f"{mutant.name:56s} {verdict:24s} {time.perf_counter() - start:5.1f}s", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
