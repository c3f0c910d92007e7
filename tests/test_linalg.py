"""Exact rational linear algebra: sparse elimination and the dense oracle helpers."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardyfrob.linalg import (
    SingularMatrixError,
    echelon,
    invert,
    mat_mul,
    power,
    rank,
    row_times,
)

fraction_entries = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def square_matrices(n: int):
    return st.lists(
        st.lists(fraction_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


def sparse(dense) -> list[dict[int, Fraction]]:
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in dense]


def sparse_identity(n: int) -> list[dict[int, Fraction]]:
    return [{i: Fraction(1)} for i in range(n)]


def sparse_mul(a, b) -> list[dict[int, Fraction]]:
    out = []
    for row in a:
        product: dict[int, Fraction] = {}
        for k, weight in row.items():
            for j, entry in b[k].items():
                product[j] = product.get(j, 0) + weight * entry
        out.append({j: value for j, value in product.items() if value})
    return out


def sparse_transpose(rows, width: int) -> list[dict[int, Fraction]]:
    columns: list[dict[int, Fraction]] = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, entry in row.items():
            columns[j][i] = entry
    return columns


@st.composite
def sparse_square_matrices(draw):
    """Square sparse rows of size 1-6, from empty to full, singular ones included."""
    n = draw(st.integers(min_value=1, max_value=6))
    index = st.integers(min_value=0, max_value=n - 1)
    entries = draw(
        st.dictionaries(st.tuples(index, index), fraction_entries.filter(bool), max_size=n * n)
    )
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    if draw(st.booleans()):
        # Entries laid over a monomial matrix, so that large sizes invert too.
        for i, j in enumerate(draw(st.permutations(range(n)))):
            rows[i][j] = draw(fraction_entries.filter(bool))
    for (i, j), value in entries.items():
        rows[i][j] = value
    if n > 1 and draw(st.booleans()):
        # A row replaced by a combination of two others: singular unless it
        # replaces one of the two.
        a, b, target = (draw(index) for _ in range(3))
        scale = draw(fraction_entries)
        combined = dict(rows[a])
        for j, value in rows[b].items():
            combined[j] = combined.get(j, 0) + scale * value
        rows[target] = {j: v for j, v in combined.items() if v}
    return rows


def test_identity_and_copy():
    eye = sparse_identity(3)
    assert invert(eye) == eye
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}]
    invert(rows)
    assert rows == [{0: 2, 1: 1}, {0: 1, 1: 1}], "invert must not change its input"


def test_invert_known_matrix():
    m = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    inv = invert(m)
    assert inv == [{0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(-1), 1: Fraction(2)}]


def test_invert_permuted_diagonal():
    # A monomial matrix inverts to its transpose with reciprocal entries.
    columns = [2, 0, 3, 1]
    values = [Fraction(3, 2), Fraction(-2), Fraction(1, 5), Fraction(7)]
    m = [{columns[i]: values[i]} for i in range(4)]
    expected = [{i: 1 / values[i]} for i in sorted(range(4), key=columns.__getitem__)]
    inverse = invert(m)
    assert inverse == expected
    assert all(type(entry) is Fraction for row in inverse for entry in row.values())


def test_invert_rejects_singular():
    with pytest.raises(SingularMatrixError, match="singular at column 1"):
        invert([{0: 1, 1: 2}, {0: 2, 1: 4}])


def test_invert_rejects_non_square():
    with pytest.raises(ValueError):
        invert([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}])


def test_rank_examples():
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank(sparse_identity(2)) == 2
    assert rank([{}, {}]) == 0
    assert rank([{0: 1, 1: 2, 2: 3}, {0: 4, 1: 5, 2: 6}]) == 2
    assert sorted(echelon([{1: 2, 2: 4}, {1: 1, 2: 2}, {0: 3}])) == [0, 1]


def test_mat_mul_and_pow():
    m = [[1, 1], [0, 1]]
    assert mat_mul(m, m) == [[1, 2], [0, 1]]
    identity = [[1, 0], [0, 1]]
    assert power(m, 5, mat_mul, identity) == [[1, 5], [0, 1]]
    assert power(m, 0, mat_mul, identity) == identity


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-2, 2), fraction_entries), min_size=4, max_size=4),
    st.lists(
        st.lists(st.one_of(st.integers(-2, 2), fraction_entries), min_size=3, max_size=3),
        min_size=4,
        max_size=4,
    ),
)
def test_row_times_matches_mat_mul(row, matrix):
    out = row_times(enumerate(row), [{j: v for j, v in enumerate(r) if v} for r in matrix])
    assert [out.get(j, 0) for j in range(3)] == mat_mul([row], matrix)[0]
    # A column reached through a nonzero weight keeps its sum, zero or not.
    reached = {j for k, w in enumerate(row) if w for j, v in enumerate(matrix[k]) if v}
    assert set(out) == reached


def test_row_times_keeps_zero_sums_and_int_entries():
    out = row_times([(0, 1), (1, -1), (2, 0)], [{0: 2, 1: 3}, {0: 2}, {2: 5}])
    assert out == {0: 0, 1: 3}
    assert all(type(value) is int for value in out.values())


def test_transpose():
    # Row and column rank agree on a non-square matrix too.
    rows = [{0: 1, 2: 3}, {1: 5}, {0: 2, 2: 6}]
    assert rank(rows) == rank(sparse_transpose(rows, 3)) == 2


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_invert_consistent_with_rank(rows):
    m = sparse(rows)
    try:
        inv = invert(m)
    except SingularMatrixError:
        assert rank(m) < 3
    else:
        assert rank(m) == 3
        eye = sparse_identity(3)
        assert sparse_mul(m, inv) == eye
        assert sparse_mul(inv, m) == eye


@settings(max_examples=200, deadline=None)
@given(sparse_square_matrices())
def test_sparse_invert_against_rank(m):
    n = len(m)
    full = rank(m) == n
    try:
        inv = invert(m)
    except SingularMatrixError as exc:
        assert not full
        # The first column that depends on the columns before it.
        first = next(
            c for c in range(n) if rank([{j: v for j, v in row.items() if j <= c} for row in m]) <= c
        )
        assert str(exc) == f"matrix is singular at column {first}"
    else:
        assert full
        assert all(value for row in inv for value in row.values())
        assert sparse_mul(m, inv) == sparse_identity(n)
        assert sparse_mul(inv, m) == sparse_identity(n)
        if all(len(row) == 1 for row in m):
            assert all(len(row) == 1 for row in inv)


@settings(max_examples=60, deadline=None)
@given(square_matrices(3))
def test_rank_of_transpose(rows):
    m = sparse(rows)
    assert rank(m) == rank(sparse_transpose(m, 3))


@settings(max_examples=40, deadline=None)
@given(square_matrices(2), square_matrices(2))
def test_trace_is_similarity_friendly(rows_a, rows_b):
    a = [[Fraction(v) for v in row] for row in rows_a]
    b = [[Fraction(v) for v in row] for row in rows_b]
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    assert ab[0][0] + ab[1][1] == ba[0][0] + ba[1][1]
