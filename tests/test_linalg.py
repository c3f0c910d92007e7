"""Exact rational linear algebra."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob.linalg import (
    SingularMatrixError,
    has_full_rank,
    identity_matrix,
    invert,
    mat_mul,
    mat_pow,
    rank,
    trace,
    transpose,
)

fraction_entries = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def square_matrices(n: int):
    return st.lists(
        st.lists(fraction_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_identity_and_copy():
    eye = identity_matrix(3)
    assert eye[0][0] == 1 and eye[0][1] == 0
    assert trace(eye) == 3


def test_invert_known_matrix():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = invert(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def test_invert_permuted_diagonal():
    # A monomial matrix inverts to its transpose with reciprocal entries.
    columns = [2, 0, 3, 1]
    values = [Fraction(3, 2), Fraction(-2), Fraction(1, 5), Fraction(7)]
    m = [
        [values[i] if j == columns[i] else Fraction(0) for j in range(4)]
        for i in range(4)
    ]
    expected = [
        [1 / m[j][i] if m[j][i] else Fraction(0) for j in range(4)] for i in range(4)
    ]
    inverse = invert(m)
    assert inverse == expected
    assert all(type(entry) is Fraction for row in inverse for entry in row)


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError):
        invert([[1, 2], [2, 4]])


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        invert([[1, 2, 3], [4, 5, 6]])


def test_rank_examples():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2, 3], [4, 5, 6]]) == 2


def test_mat_mul_and_pow():
    m = [[1, 1], [0, 1]]
    assert mat_mul(m, m) == [[1, 2], [0, 1]]
    assert mat_pow(m, 5) == [[1, 5], [0, 1]]
    assert mat_pow(m, 0) == [[1, 0], [0, 1]]


def test_transpose():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_invert_consistent_with_rank(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    try:
        inv = invert(m)
    except SingularMatrixError:
        assert rank(m) < 3
        assert not has_full_rank(m)
    else:
        assert rank(m) == 3
        assert has_full_rank(m)
        eye = identity_matrix(3)
        assert mat_mul(m, inv) == eye
        assert mat_mul(inv, m) == eye


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_rank_of_transpose(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    assert rank(m) == rank(transpose(m))


@settings(max_examples=40, deadline=None)
@given(square_matrices(2), square_matrices(2))
def test_trace_is_similarity_friendly(rows_a, rows_b):
    a = [[Fraction(v) for v in row] for row in rows_a]
    b = [[Fraction(v) for v in row] for row in rows_b]
    assert trace(mat_mul(a, b)) == trace(mat_mul(b, a))
