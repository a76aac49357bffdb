"""GF(2) matrix fixtures, properties, and an independent row-space oracle."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import principal_submatrix, set_diagonal
from circuitnull.errors import InputFormatError
from circuitnull.gf2 import Gf2Matrix, bit_rank, nullity, rank

ALL_ONES_3 = Gf2Matrix.from_rows([[1, 1, 1]] * 3)
IP_K5 = Gf2Matrix.from_rows(
    [[1, 0, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0], [0, 1, 0, 0]],
    labels=["2", "3", "4", "5"],
)
EMPTY = Gf2Matrix.from_rows([])


def span_size(rows) -> int:
    """Independent oracle: count the distinct GF(2) combinations of bit-packed rows."""
    span = set()
    for picks in itertools.product((0, 1), repeat=len(rows)):
        vec = 0
        for take, row in zip(picks, rows):
            if take:
                vec ^= row
        span.add(vec)
    return len(span)


@st.composite
def small_matrices(draw, max_n: int = 6, symmetric: bool = False):
    n = draw(st.integers(0, max_n))
    rows = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
    return Gf2Matrix.from_rows(rows)


def test_all_ones_3x3_nullity_is_2():
    assert nullity(ALL_ONES_3) == 2
    assert rank(ALL_ONES_3) == 1  # all rows equal


def test_k5_partition_matrix_is_nonsingular():
    assert nullity(IP_K5) == 0
    assert rank(IP_K5) == 4


def test_forced_ranks():
    identity = Gf2Matrix(("a", "b", "c", "d"), (1, 2, 4, 8))
    assert nullity(Gf2Matrix(("a", "b", "c"), (0, 0, 0))) == 3
    assert nullity(identity) == 0
    assert rank(identity) == 4
    assert nullity(EMPTY) == 0
    assert rank(EMPTY) == 0


@given(small_matrices())
def test_rank_plus_nullity_is_dimension(m):
    assert rank(m) + nullity(m) == m.n


@given(small_matrices())
def test_rank_matches_row_space_oracle(m):
    assert 2 ** rank(m) == span_size(m.rows)


@given(st.integers(0, 6).flatmap(lambda cols: st.lists(st.integers(0, 2**cols - 1), max_size=7)))
def test_bit_rank_of_any_shape_matches_row_space_oracle(rows):
    # As the sweep tests call it: more rows than columns, or fewer.
    assert 2 ** bit_rank(rows) == span_size(rows)


@given(small_matrices(), st.randoms(use_true_random=False))
def test_nullity_invariant_under_simultaneous_permutation(m, rng):
    order = list(range(m.n))
    rng.shuffle(order)
    rows = [[m.entry(order[i], order[j]) for j in range(m.n)] for i in range(m.n)]
    permuted = Gf2Matrix.from_rows(rows, labels=[m.labels[i] for i in order])
    assert nullity(permuted) == nullity(m)


@given(small_matrices(), st.data())
def test_submatrix_nullity_bounds(m, data):
    keep = data.draw(st.sets(st.sampled_from(list(m.labels))) if m.n else st.just(set()))
    sub = principal_submatrix(m, keep)
    dropped = m.n - sub.n
    assert nullity(sub) <= sub.n
    assert nullity(sub) >= nullity(m) - dropped


def test_elimination_is_deterministic():
    m = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    same = Gf2Matrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rank(m) == rank(same)
    assert nullity(m) == nullity(same)


def test_principal_submatrix_identity_and_empty():
    assert principal_submatrix(IP_K5, IP_K5.labels) == IP_K5
    assert principal_submatrix(IP_K5, set()) == EMPTY


def test_principal_submatrix_preserves_label_order():
    sub = principal_submatrix(IP_K5, {"5", "2"})
    assert sub.labels == ("2", "5")
    assert sub.to_lists() == [[1, 0], [0, 0]]


def test_principal_submatrix_unknown_label():
    with pytest.raises(ValueError, match="nope"):
        principal_submatrix(IP_K5, {"nope"})


def test_set_diagonal():
    single = Gf2Matrix.from_rows([[0]], labels=["v"])
    assert set_diagonal(single, "v", 1).to_lists() == [[1]]
    assert set_diagonal(single, "v", 0) == single
    assert set_diagonal(IP_K5, "2", 1) == IP_K5
    with pytest.raises(ValueError, match="unknown"):
        set_diagonal(single, "w", 1)
    with pytest.raises(ValueError, match="0 or 1"):
        set_diagonal(single, "v", 2)


def test_text_round_trip():
    text = IP_K5.to_text()
    assert text.splitlines()[0] == "labels: 2 3 4 5"
    assert Gf2Matrix.from_text(text) == IP_K5
    # labels line may also follow the size line
    shuffled = "4\nlabels: 2 3 4 5\n" + "\n".join(text.splitlines()[2:]) + "\n"
    assert Gf2Matrix.from_text(shuffled) == IP_K5


def test_from_text_line_numbers_in_errors():
    with pytest.raises(InputFormatError, match="line 1"):
        Gf2Matrix.from_text("abc\n")
    with pytest.raises(InputFormatError, match="line 2"):
        Gf2Matrix.from_text("2\n0 2\n0 0\n")
    with pytest.raises(InputFormatError, match="line 3"):
        Gf2Matrix.from_text("2\n0 1\n0\n")
    with pytest.raises(InputFormatError, match="^line 3: duplicate labels line$"):
        Gf2Matrix.from_text("labels: a b\n2\nlabels: a b\n0 1\n1 0\n")
    with pytest.raises(InputFormatError, match="^line 1: expected 2 labels, got 3$"):
        Gf2Matrix.from_text("labels: a b c\n2\n0 1\n1 0\n")
    with pytest.raises(InputFormatError, match="^line 3: duplicate labels$"):
        Gf2Matrix.from_text("2\n0 1\nlabels: a a\n1 0\n")
    with pytest.raises(InputFormatError, match="^line 2: expected 2 rows, got 1$"):
        Gf2Matrix.from_text("labels: a b\n2\n0 1\n")


def test_json_round_trip():
    assert Gf2Matrix.from_json_dict(IP_K5.to_json_dict()) == IP_K5


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Gf2Matrix(("a", "b"), (0,)), ValueError, "2 labels but 1 rows"),
        (lambda: Gf2Matrix(("a",), (2,)), ValueError, "row 0 has bits outside an 1x1 matrix"),
        (lambda: Gf2Matrix.from_rows([[0, 1]]), ValueError, "row 0 has length 2, expected 1"),
        (
            lambda: Gf2Matrix.from_rows([[1, 0], [0, 2]]),
            ValueError,
            "entry (1,1) is 2, expected 0 or 1",
        ),
        (lambda: Gf2Matrix.from_text("-1\n"), InputFormatError, "line 1: negative matrix size"),
    ],
    ids=["row-count", "bits-outside", "row-length", "entry", "negative-size"],
)
def test_matrix_constructors_reject_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
