"""Exact rational linear solving via fraction-free (Bareiss) elimination."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def solve_linear_system(rows: Sequence[Sequence[int]],
                        rhs: Sequence[int]) -> list[Fraction] | None:
    """Solve a square integer system exactly; None when no unique solution exists.

    The rows are eliminated fraction-free: with the Bareiss update every
    intermediate entry stays an exact integer and the division by the
    previous pivot is exact, which keeps growth polynomial.  Back
    substitution is fraction-free as well: the last pivot is the determinant
    D up to sign, so by Cramer's rule D times each unknown is an integer, and
    one Fraction is built per unknown at the end.
    """
    k = len(rows)
    if any(len(row) != k for row in rows) or len(rhs) != k:
        raise ValueError("system must be square with a matching right-hand side")
    if k == 0:
        return []

    m = [[*row, b] for row, b in zip(rows, rhs)]

    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col]), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        pivot = m[col][col]
        row_c = m[col]
        for r in range(col + 1, k):
            row_r = m[r]
            factor = row_r[col]
            for c in range(col + 1, k + 1):
                row_r[c] = (pivot * row_r[c] - factor * row_c[c]) // prev
            row_r[col] = 0
        prev = pivot

    det = prev
    nums = [0] * k
    for i in range(k - 1, -1, -1):
        row = m[i]
        acc = det * row[k]
        for j in range(i + 1, k):
            acc -= row[j] * nums[j]
        nums[i] = acc // row[i]
    return [Fraction(num, det) for num in nums]
