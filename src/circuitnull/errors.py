"""Shared exception types, and the line loop of the text readers that raise them."""

from __future__ import annotations

from typing import Iterator


class CapExceededError(RuntimeError):
    """A sweep would exceed its configured cap: of vertices, or of live transfer-matrix states."""


class InputFormatError(ValueError):
    """A text input failed to parse; the message carries the line number."""


def numbered_lines(text: str, comment: str | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number from 1, stripped line) per non-blank line, cut at ``comment`` if given."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split(comment, 1)[0] if comment else raw).strip()
        if line:
            yield lineno, line
