"""Exact linear algebra over GF(2) on bit-packed labeled matrices.

``bit_rank`` keeps a basis keyed by leading bit, the rule ``sweep.nullities`` also uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputFormatError, numbered_lines


def bit_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of bit-packed rows (bit j of rows[i] is entry i,j).

    Each row is reduced by the basis rows keyed by its leading bit until it is
    0 or leads with a new bit, which it then keys: one insertion per row.
    """
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def bit_submatrix(rows: Sequence[int], keep: Sequence[int]) -> list[int]:
    """Compress a packed square matrix onto the rows/columns in ``keep``."""
    out = []
    for i in keep:
        row = rows[i]
        packed = 0
        for new_j, j in enumerate(keep):
            if (row >> j) & 1:
                packed |= 1 << new_j
        out.append(packed)
    return out


@dataclass(frozen=True)
class Gf2Matrix:
    """Square 0/1 matrix with labeled rows/columns, rows stored bit-packed.

    The 0x0 empty matrix is a legal value (nullity 0).
    """

    labels: tuple[str, ...]
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.rows) != n:
            raise ValueError(f"{n} labels but {len(self.rows)} rows")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate labels")
        for i, row in enumerate(self.rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {i} has bits outside an {n}x{n} matrix")

    @property
    def n(self) -> int:
        return len(self.labels)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def label_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}") from None

    def to_lists(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.n)] for i in range(self.n)]

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], labels: Sequence[str] | None = None
    ) -> "Gf2Matrix":
        n = len(rows)
        if labels is None:
            labels = [str(i + 1) for i in range(n)]
        packed = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            bits = 0
            for j, value in enumerate(row):
                if value not in (0, 1):
                    raise ValueError(f"entry ({i},{j}) is {value!r}, expected 0 or 1")
                if value:
                    bits |= 1 << j
            packed.append(bits)
        return cls(tuple(str(x) for x in labels), tuple(packed))

    def to_text(self) -> str:
        lines = [f"labels: {' '.join(self.labels)}", str(self.n)]
        for i in range(self.n):
            lines.append(" ".join(str(self.entry(i, j)) for j in range(self.n)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Gf2Matrix":
        labels: list[str] | None = None
        n: int | None = None
        rows: list[list[int]] = []
        for lineno, line in numbered_lines(text):
            if line.startswith("labels:"):
                if labels is not None:
                    raise InputFormatError(f"line {lineno}: duplicate labels line")
                labels, labels_at = line[len("labels:"):].split(), lineno
                continue
            if n is None:
                try:
                    n, size_at = int(line), lineno
                except ValueError:
                    raise InputFormatError(
                        f"line {lineno}: expected matrix size, got {line!r}"
                    ) from None
                if n < 0:
                    raise InputFormatError(f"line {lineno}: negative matrix size")
                continue
            entries = line.split()
            if any(tok not in ("0", "1") for tok in entries):
                raise InputFormatError(f"line {lineno}: entries must be 0 or 1")
            if len(entries) != n:
                raise InputFormatError(f"line {lineno}: expected {n} entries, got {len(entries)}")
            rows.append([int(tok) for tok in entries])
        if n is None:
            raise InputFormatError("line 1: missing matrix size")
        if len(rows) != n:
            raise InputFormatError(f"line {size_at}: expected {n} rows, got {len(rows)}")
        if labels is not None and len(labels) != n:
            raise InputFormatError(f"line {labels_at}: expected {n} labels, got {len(labels)}")
        try:
            return cls.from_rows(rows, labels)
        except ValueError as exc:  # duplicate labels
            raise InputFormatError(f"line {labels_at}: {exc}") from None

    def to_json_dict(self) -> dict:
        return {"n": self.n, "labels": list(self.labels), "rows": self.to_lists()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Gf2Matrix":
        return cls.from_rows(data["rows"], data.get("labels"))


def rank(m: Gf2Matrix) -> int:
    """Rank of m over GF(2)."""
    return bit_rank(m.rows)


def nullity(m: Gf2Matrix) -> int:
    """GF(2)-nullity of m; the empty matrix has nullity 0."""
    return m.n - rank(m)

