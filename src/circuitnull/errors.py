"""Shared exception types, the vertex cap check, and the line loop of the text readers."""

from __future__ import annotations

from typing import Iterator


class CapExceededError(RuntimeError):
    """A sweep would exceed its configured cap: of vertices, or of live transfer-matrix states."""


def check_cap(n: int, cap: int, base: int, what: str) -> None:
    """Refuse a sweep of base^n states when n exceeds the vertex cap."""
    if n > cap:
        try:
            count = f"{base}^{n} = {base ** n}"
        except ValueError:  # more digits than the interpreter will convert to text
            count = f"{base}^{n}"
        raise CapExceededError(
            f"refusing to sweep {count} {what} "
            f"(cap is {cap} vertices; pass a larger cap to force it)"
        )


class InputFormatError(ValueError):
    """A text input failed to parse; the message carries the line number."""


def numbered_lines(text: str, comment: str | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number from 1, stripped line) per non-blank line, cut at ``comment`` if given."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split(comment, 1)[0] if comment else raw).strip()
        if line:
            yield lineno, line
