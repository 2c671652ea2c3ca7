"""Fraction-free elimination kernel.

One-step Bareiss: after eliminating column k, every entry is an exact k+1
minor of the input, so the division by the previous pivot is always exact
and intermediate growth stays polynomial in the entry sizes. Zero pivots
are resolved by swapping in the first row below with a nonzero entry in
the pivot column (arithmetic is exact, so no magnitude-based pivoting);
if none exists the determinant is 0.
"""

from __future__ import annotations


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix given as lists of rows.

    Mutates ``rows`` in place; callers pass a scratch copy.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        rk = rows[k]
        pivot = rk[k]
        for i in range(k + 1, n):
            ri = rows[i]
            head = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pivot * ri[j] - head * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]
