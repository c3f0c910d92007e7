"""Exact linear algebra over the rationals.

Elimination works on sparse rows: a row is a mapping from column index to a
nonzero entry (integer entries are accepted and promoted to
:class:`fractions.Fraction`).  :func:`echelon` is the one forward
elimination; :func:`rank` counts its pivots and :func:`invert` finishes it to
Gauss-Jordan.  A pivot is always the leading entry of the first row that
reaches its column, so repeated runs produce identical results, and each step
touches only stored entries: a monomial matrix, such as the pairings of this
package, inverts in one step per row.  :func:`row_times` is the one sparse
row times sparse matrix product.  Dense lists of lists survive only in
:func:`mat_mul`, for the dense checks of the permutation model in the
oracles.  :func:`power` raises an element of any associative product by
repeated squaring.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

SparseRow = dict[int, Fraction]
T = TypeVar("T")


class SingularMatrixError(ArithmeticError):
    """Raised when a matrix that must be invertible is not."""


def echelon(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, SparseRow]:
    """Forward elimination: independent rows keyed by their leading column.

    Each row is reduced against the pivots found so far, leading entry first;
    what is left, scaled to a leading 1, becomes the pivot of its leading
    column, and a row reduced to zero is dropped.  The pivot columns are the
    columns that do not depend on the columns before them.
    """
    pivots: dict[int, SparseRow] = {}
    for row in rows:
        work = {col: Fraction(value) for col, value in row.items() if value}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                scale = work[lead]
                pivots[lead] = {col: value / scale for col, value in work.items()}
                break
            _subtract(work, work[lead], pivot)
    return pivots


def _subtract(work: SparseRow, factor: Fraction, row: SparseRow) -> None:
    """``work -= factor * row`` in place, dropping entries that become zero."""
    for col, value in row.items():
        updated = work.get(col, 0) - factor * value
        if updated:
            work[col] = updated
        else:
            work.pop(col, None)


def rank(rows: Iterable[Mapping[int, Fraction | int]]) -> int:
    """Exact rank of a matrix given as sparse rows."""
    return len(echelon(rows))


def invert(rows: Sequence[Mapping[int, Fraction | int]]) -> list[SparseRow]:
    """Invert a square rational matrix, given and returned as sparse rows.

    Gauss-Jordan on ``[F | I]``: :func:`echelon`, then back substitution from
    the last pivot column.  Raises :class:`SingularMatrixError`, naming the
    first column that depends on the columns before it, when ``F`` has no
    inverse.
    """
    n = len(rows)
    for i, row in enumerate(rows):
        outside = [col for col in row if not 0 <= col < n]
        if outside:
            raise ValueError(f"row {i} has column {outside[0]}, expected 0..{n - 1}")
    pivots = echelon({**row, n + i: 1} for i, row in enumerate(rows))
    for col in range(n):
        if col not in pivots:
            raise SingularMatrixError(f"matrix is singular at column {col}")
    for col in reversed(range(n)):
        line = pivots[col]
        for later in [c for c in line if col < c < n]:
            _subtract(line, line[later], pivots[later])
    return [
        {c - n: value for c, value in pivots[col].items() if c >= n} for col in range(n)
    ]


def row_times(
    row: Iterable[tuple[int, Fraction | int]], matrix: Sequence[Mapping[int, Fraction | int]]
) -> dict[int, Fraction | int]:
    """The sparse row ``sum_k row[k] * matrix[k]``, from ``(k, row[k])`` pairs;
    zero weights are skipped and zero sums kept."""
    out: dict[int, Fraction | int] = {}
    for k, weight in row:
        if weight:
            for j, entry in matrix[k].items():
                out[j] = out.get(j, 0) + weight * entry
    return out


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


def power(base: T, exponent: int, multiply: Callable[[T, T], T], one: T) -> T:
    """``base ** exponent`` under ``multiply`` by repeated squaring, ``one`` at 0.

    Squares only while a higher bit of the exponent is left, so it takes
    ``bit_length - 1`` squarings and ``popcount - 1`` other products: never
    more than the ``exponent`` products of multiplying ``one`` by ``base`` in
    a loop.  The product must be associative; powers of one element commute.
    """
    if exponent < 0:
        raise ValueError("negative powers are not supported")
    result = None
    while exponent:
        if exponent & 1:
            result = base if result is None else multiply(result, base)
        exponent >>= 1
        if exponent:
            base = multiply(base, base)
    return one if result is None else result

