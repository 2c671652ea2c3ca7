"""Hankel matrices from moment sequences and their exact determinants.

The two determinant families are

    P_n = -det(a_{i+j})_{i,j=0..n+1}      with a_0 = 0
    Q_n =  det(a_{i+j+2})_{i,j=0..n}

evaluated exactly: each row is scaled by the lcm of its entry denominators,
the integer matrix goes through fraction-free Bareiss elimination, and the
scale factor is divided back out. Matrices are plain lists of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ._bareiss_py import bareiss_det
from .errors import NonPositiveQ
from .moments import MomentSequence


def build_P_matrix(seq: MomentSequence, n: int) -> list[list[Fraction]]:
    """(n+2)x(n+2) rows with entry [i][j] = a_{i+j}, where a_0 = 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = [Fraction(0)] + seq.moments(2 * n + 2)
    return [a[i:i + n + 2] for i in range(n + 2)]


def build_Q_matrix(seq: MomentSequence, n: int) -> list[list[Fraction]]:
    """(n+1)x(n+1) rows with entry [i][j] = a_{i+j+2}."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = [Fraction(0)] + seq.moments(2 * n + 2)
    return [a[i + 2:i + n + 3] for i in range(n + 1)]


def det_rational(rows) -> Fraction:
    """Exact determinant of a square rational matrix given as rows.

    Scales row i by the lcm L_i of its entry denominators, runs the integer
    kernel, and divides the product of the L_i back out.
    """
    scale = 1
    scaled = []
    for row in rows:
        L = 1
        for e in row:
            L = lcm(L, e.denominator)
        scale *= L
        scaled.append([int(e * L) for e in row])
    return Fraction(bareiss_det(scaled), scale)


def hankel_P(seq: MomentSequence, n: int) -> Fraction:
    """P_n = -det(a_{i+j}), i,j = 0..n+1."""
    # Entry (0,0) is always a_0 = 0, so elimination starts with a row swap;
    # this is the kernel's routine path, not an edge case.
    return -det_rational(build_P_matrix(seq, n))


def hankel_Q(seq: MomentSequence, n: int) -> Fraction:
    """Q_n = det(a_{i+j+2}), i,j = 0..n; raises NonPositiveQ unless Q_n > 0."""
    value = det_rational(build_Q_matrix(seq, n))
    if value <= 0:
        raise NonPositiveQ(n, value)
    return value
