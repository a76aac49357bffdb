"""Shared exception types."""

from __future__ import annotations


class CapExceededError(RuntimeError):
    """A sweep would exceed its configured cap: of vertices, or of live transfer-matrix states."""


class InputFormatError(ValueError):
    """A text input failed to parse; the message carries the line number."""
