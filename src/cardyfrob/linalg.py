"""Exact linear algebra over the rationals.

Matrices are lists of lists of :class:`fractions.Fraction` (integer entries
are accepted and promoted).  Everything here is deterministic: pivoting picks
the first row with a nonzero entry, so repeated runs produce identical
results.  Zero entries are skipped during elimination, which makes inversion
of the sparse pairing matrices that arise in this package effectively
quadratic instead of cubic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


class SingularMatrixError(ArithmeticError):
    """Raised when a matrix that must be invertible is not."""


def identity_matrix(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matrix_copy(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(entry) for entry in row] for row in rows]


def invert(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    """Invert a square rational matrix by Gauss-Jordan elimination.

    Raises :class:`SingularMatrixError` when the matrix has no inverse.
    """
    n = len(rows)
    work = matrix_copy(rows)
    for i, row in enumerate(work):
        if len(row) != n:
            raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        row.extend(Fraction(int(j == i)) for j in range(n))
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if work[r][col] != 0),
            None,
        )
        if pivot_row is None:
            raise SingularMatrixError(f"matrix is singular at column {col}")
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        if pivot != 1:
            work[col] = [entry / pivot if entry else entry for entry in work[col]]
        pivot_line = work[col]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor == 0:
                continue
            row = work[r]
            for c in range(col, 2 * n):
                if pivot_line[c]:
                    row[c] -= factor * pivot_line[c]
    return [row[n:] for row in work]


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank by fraction elimination with first-nonzero pivoting."""
    work = matrix_copy(rows)
    if not work:
        return 0
    n_cols = len(work[0])
    r = 0
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][col] != 0),
            None,
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot_line = work[r]
        pivot = pivot_line[col]
        for i in range(r + 1, len(work)):
            factor = work[i][col]
            if factor == 0:
                continue
            scale = factor / pivot
            row = work[i]
            for c in range(col, n_cols):
                if pivot_line[c]:
                    row[c] -= scale * pivot_line[c]
        r += 1
        if r == len(work):
            break
    return r


_MODULAR_PRIME = (1 << 61) - 1


def has_full_rank(rows: Sequence[Sequence[Fraction | int]]) -> bool:
    """Decide whether a square rational matrix is nonsingular.

    A single modular elimination over a large prime certifies full rank
    quickly in the typical case; only a modular rank deficit falls back to
    exact rational elimination, since reductions can lose rank mod p but
    never gain it.
    """
    n = len(rows)
    if n == 0:
        return True
    modular = _rank_mod(rows, _MODULAR_PRIME)
    if modular == n:
        return True
    return rank(rows) == n


def _rank_mod(rows: Sequence[Sequence[Fraction | int]], p: int) -> int:
    work: list[list[int]] = []
    for row in rows:
        reduced = []
        for entry in row:
            entry = Fraction(entry)
            den = entry.denominator % p
            if den == 0:
                # Denominator collides with the prime; report a deficit so the
                # caller falls back to exact arithmetic.
                return 0
            reduced.append(entry.numerator * pow(den, p - 2, p) % p)
        work.append(reduced)
    n_cols = len(work[0]) if work else 0
    r = 0
    for col in range(n_cols):
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][col] % p != 0),
            None,
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv_pivot = pow(work[r][col], p - 2, p)
        pivot_line = [entry * inv_pivot % p for entry in work[r]]
        work[r] = pivot_line
        for i in range(r + 1, len(work)):
            factor = work[i][col]
            if factor == 0:
                continue
            row = work[i]
            for c in range(col, n_cols):
                if pivot_line[c]:
                    row[c] = (row[c] - factor * pivot_line[c]) % p
        r += 1
        if r == len(work):
            break
    return r


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Multiply two matrices (integer or rational entries), skipping zeros."""
    n, mid = len(a), len(b)
    if n and len(a[0]) != mid:
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {mid} rows")
    width = len(b[0]) if mid else 0
    out = [[0] * width for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for k in range(mid):
            entry = row_a[k]
            if not entry:
                continue
            row_b = b[k]
            for j in range(width):
                if row_b[j]:
                    row_out[j] += entry * row_b[j]
    return out


def mat_pow(m: Sequence[Sequence], exponent: int) -> list[list]:
    if exponent < 0:
        raise ValueError("negative matrix power is not supported")
    n = len(m)
    result: list[list] = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(exponent):
        result = mat_mul(result, m)
    return result


def trace(m: Sequence[Sequence]):
    return sum(m[i][i] for i in range(len(m)))


def transpose(m: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*m)] if m else []
