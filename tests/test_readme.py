"""The code in README.md runs as written."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippet_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from circuitnull import" in snippet
    exec(compile(snippet, "README.md", "exec"), {})
