"""Independent checks and helpers used by the test suite.

The oracles deliberately avoid the package's own elimination and
summation code: the determinant oracles are plain cofactor expansion and
the arrow-matrix closed form, the moment oracles are numerical quadrature,
and the factorial family's approximants are checked against harmonic
numbers, so agreement is evidence rather than tautology.
``records_from_json`` reads ``emit``'s JSON output back for round-trip
tests.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from scipy.integrate import quad

from hankel_approx.driver import ApproximantRecord
from hankel_approx.exactnum import parse_rational


def cofactor_det(rows: list[list]) -> Fraction:
    """Determinant by recursive cofactor expansion along the first row.

    Exponential time, so callers keep the order small (<= 6). Entries may
    be ints or Fractions; the result is exact.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


class ArrowShapeViolation(ValueError):
    """Matrix is not arrow-shaped: nonzero entry off the diagonal, first row and column."""


class ZeroDiagonal(ValueError):
    """Arrow-matrix formula needs nonzero diagonal entries below the corner."""


def arrow_det(rows: list[list]) -> Fraction:
    """Closed-form determinant for arrow matrices.

    Requires entry [i][j] = 0 whenever i != j and i,j > 0, and a nonzero
    diagonal below the corner; then

        det = (prod_{i>=1} a_{i,i}) * (a_{0,0} - sum_{i>=1} a_{i,0} a_{0,i} / a_{i,i})
    """
    n = len(rows) - 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rows[i][j] != 0:
                raise ArrowShapeViolation(f"nonzero entry at ({i}, {j})")
    product = Fraction(1)
    total = Fraction(rows[0][0])
    for i in range(1, n + 1):
        d = rows[i][i]
        if d == 0:
            raise ZeroDiagonal(f"zero diagonal entry at ({i}, {i})")
        product *= d
        total -= Fraction(rows[i][0]) * rows[0][i] / d
    return product * total


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n, n >= 1."""
    if n < 1:
        raise ValueError(f"harmonic requires n >= 1, got {n}")
    return sum((Fraction(1, i) for i in range(2, n + 1)), Fraction(1))


def records_from_json(text: str) -> list:
    """Rebuild ApproximantRecords from emit(..., format="json") output."""
    return [
        ApproximantRecord(
            n=row["n"],
            P=parse_rational(row["P"]),
            Q=parse_rational(row["Q"]),
            value=parse_rational(row["value"]),
            gap=parse_rational(row["gap"]) if row.get("gap") else None,
            method=row["method"],
        )
        for row in json.loads(text)
    ]


def gamma_moment_quad(n: int) -> tuple[float, float]:
    """Quadrature value of the gamma family's n-th moment, with error bound.

    Uses (-1)^n * integral over (0, 1) of
    x^(n-1) log(1-x)^n + x^n log(1-x)^(n-1).
    """

    def integrand(x: float) -> float:
        lg = math.log1p(-x)
        return x ** (n - 1) * lg**n + x**n * lg ** (n - 1)

    value, err = quad(integrand, 0.0, 1.0, limit=200)
    sign = -1.0 if n % 2 else 1.0
    return sign * value, err


def gompertz_moment_quad(n: int) -> tuple[float, float]:
    """Quadrature value of integral over (0, inf) of (x+1)^(n-1) e^-x."""

    def integrand(x: float) -> float:
        return (x + 1.0) ** (n - 1) * math.exp(-x)

    value, err = quad(integrand, 0.0, math.inf, limit=200)
    return value, err


def zeta_moment_quad(k: int, n: int) -> tuple[float, float]:
    """Quadrature value of the zeta(k) family's n-th moment.

    1/(k-1)! * integral over (0, inf) of x^(k-1) (1 - e^-x)^(n-1) e^-x.
    """

    def integrand(x: float) -> float:
        return x ** (k - 1) * (-math.expm1(-x)) ** (n - 1) * math.exp(-x)

    value, err = quad(integrand, 0.0, math.inf, limit=200)
    scale = 1.0 / math.factorial(k - 1)
    return scale * value, scale * err
