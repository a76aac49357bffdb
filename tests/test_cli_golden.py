"""CLI bytes pinned: stdout, stderr and exit code of recorded invocations.

``tests/data/cli_golden.json`` holds the input files and, per invocation,
the argv and what the CLI printed and returned when it was recorded.
Re-record after an intended output change with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from circuitnull.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def _write_inputs(files: dict[str, str], directory: Path) -> None:
    for name, text in files.items():
        (directory / name).write_text(text)


_GOLDEN = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", _GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in _GOLDEN["cases"]]
)
def test_cli_bytes_match_golden(case, tmp_path, monkeypatch):
    _write_inputs(_GOLDEN["files"], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _invoke(case["argv"]) == case


if __name__ == "__main__":
    # Re-record every case's output from the inputs and argv already in the file.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(_GOLDEN["files"], Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            _GOLDEN["cases"] = [_invoke(c["argv"]) for c in _GOLDEN["cases"]]
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(_GOLDEN, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
