"""Independent checks and helpers used by the test suite.

The oracles deliberately avoid the package's own elimination and
summation code: the determinant oracle is plain cofactor expansion, and
the Hankel matrices it expands are built here too; the moment oracles are
numerical quadrature, the closed forms of the gompertz and factorial
moments, which the package generates by their recurrences instead, and the
gamma and zeta sums added term by term, which the package sums over one
common denominator. The factorial family's approximants are checked
against harmonic numbers, so agreement is evidence rather than
tautology. The recurrence's polynomials are rebuilt from its coefficients
and paired by the defining double sum, so its orthogonality is checked
outside the moment table. ``records_from_json`` reads ``render``'s JSON
output back for round-trip tests.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from scipy.integrate import quad

from hankel_approx.driver import ApproximantRecord
from hankel_approx.exactnum import parse_rational


def hankel_matrix(seq, shift: int, order: int) -> list[list[Fraction]]:
    """(a_{shift+i+j})_{i,j<order} as rows, with a_0 = 0."""
    return [[seq.moment(shift + i + j) if shift + i + j else Fraction(0)
             for j in range(order)] for i in range(order)]


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


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number 1 + 1/2 + ... + 1/n, n >= 1."""
    if n < 1:
        raise ValueError(f"harmonic requires n >= 1, got {n}")
    return sum((Fraction(1, i) for i in range(2, n + 1)), Fraction(1))


def inner_product(f, g, seq) -> Fraction:
    """<f, g> = sum_{i,j} f_i g_j a_{i+j+2}, exactly.

    Polynomials are coefficient sequences indexed by degree.
    """
    conv = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj:
                    conv[i + j] += fi * gj
    return sum(
        (c * seq.moment(d + 2) for d, c in enumerate(conv) if c), Fraction(0)
    )


def polynomials(recurrence) -> list[tuple]:
    """q_0 .. q_m rebuilt from the recurrence's (alpha_k, beta_k), k < m.

    q_{k+1} = (x - alpha_k) q_k - beta_k q_{k-1}, with q_0 = 1 and q_{-1} = 0.
    """
    polys = [(Fraction(1),)]
    prev = ()
    for alpha, beta in recurrence:
        curr = polys[-1]
        coeffs = [Fraction(0), *curr]
        for i, c in enumerate(curr):
            coeffs[i] -= alpha * c
        for i, c in enumerate(prev):
            coeffs[i] -= beta * c
        prev = curr
        polys.append(tuple(coeffs))
    return polys


def records_from_json(text: str) -> list:
    """Rebuild ApproximantRecords from the joined render(..., "json") output."""
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


def gompertz_moment(n: int) -> Fraction:
    """sum_{i=0..n-1} (n-1)!/i!, an integer for every n >= 1."""
    f = math.factorial(n - 1)
    return Fraction(sum(f // math.factorial(i) for i in range(n)))


def factorial_moment(n: int) -> Fraction:
    """(n-1)!."""
    return Fraction(math.factorial(n - 1))


def gamma_moment_terms(n: int) -> Fraction:
    """(n-1)! * sum_{i=0..n} C(n,i) (-1)^i (n-2i-1) / (i+1)^(n+1), term by term."""
    total = Fraction(0)
    for i in range(n + 1):
        term = Fraction(math.comb(n, i) * (n - 2 * i - 1), (i + 1) ** (n + 1))
        total += -term if i % 2 else term
    return math.factorial(n - 1) * total


def zeta_moment_terms(k: int, n: int) -> Fraction:
    """sum_{i=0..n-1} C(n-1,i) (-1)^i / (i+1)^k, term by term."""
    total = Fraction(0)
    for i in range(n):
        term = Fraction(math.comb(n - 1, i), (i + 1) ** k)
        total += -term if i % 2 else term
    return total


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
