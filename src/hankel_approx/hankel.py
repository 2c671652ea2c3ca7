"""Hankel matrices from moment sequences and their determinants, exact or mod a prime.

The two determinant families are

    P_n = -det(a_{i+j})_{i,j=0..n+1}      with a_0 = 0
    Q_n =  det(a_{i+j+2})_{i,j=0..n}

``hankel_sweep`` yields every (P_n, Q_n) for n = 0 .. n_max from one table
of the Hankel determinants H^(k)_m = det(a_{k+i+j})_{i,j<m}, with
H^(k)_0 = 1 and H^(k)_1 = a_k, filled by the Desnanot-Jacobi identity
(Dodgson 1866, "Condensation of determinants"; Bareiss 1968)

    H^(k)_{m+1} = (H^(k)_m H^(k+2)_m - (H^(k+1)_m)^2) / H^(k+2)_{m-1}.

Entry H^(k)_m first needs the moment a_{k+2m-2}, so each moment adds one
anti-diagonal j = k + 2m - 2, and only the last three anti-diagonals are
kept. Step n adds the anti-diagonals of a_{2n+1} and a_{2n+2}; the second
ends with Q_n = H^(2)_{n+1} and -P_n = H^(0)_{n+2}. That is O(n) new
entries per step, O(N^2) for a sweep, against O(N^4) for per-n
elimination.

The divisor H^(k+2)_{m-1} can be zero for a custom sequence (the odd
moments of a symmetric measure vanish, for one). From the step that meets
one on, the sweep computes each index with ``hankel_P``/``hankel_Q``,
which evaluate one matrix each with ``det_rational``: fraction-free
elimination of the matrix with its rows scaled to integers. Matrices are
plain lists of rows.

``hankel_residues`` runs the same table on the moments reduced mod a prime
p, dividing by modular inverses, and yields (P_n mod p, Q_n mod p). Its
entries stay below p, so a row costs O(n) word-size operations however
large the exact determinants grow. A divisor that is 0 mod p (an exact
zero, or p dividing a nonzero one), or a moment whose denominator p
divides, ends it early; the caller decides what replaces the rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator

from .errors import NonPositiveQ
from .moments import MomentSequence


def _hankel_matrix(seq: MomentSequence, n: int, shift: int) -> list[list[Fraction]]:
    """Rows of the Hankel matrix (a_{shift+i+j})_{i,j<order}, with a_0 = 0,
    whose last entry is a_{2n+2}: P_n's from shift 0 (order n+2), Q_n's
    from shift 2 (order n+1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    a = [Fraction(0)] + seq.moments(2 * n + 2)
    order = n + 2 - shift // 2
    return [a[shift + i:shift + i + order] for i in range(order)]


def det_rational(rows) -> Fraction:
    """Exact determinant of a square rational matrix given as rows.

    Row i is scaled by the lcm L_i of its entry denominators into an
    integer copy, which one-step fraction-free elimination (Bareiss 1968)
    reduces: after column k every entry is an exact (k+1)-minor, so the
    division by the previous pivot is exact and entries grow only
    polynomially. A zero pivot is swapped with the first row below that is
    nonzero in its column (the arithmetic is exact, so magnitudes do not
    matter); if there is none, the determinant is 0. The product of the L_i
    is divided back out.
    """
    scale = 1
    m = []
    for row in rows:
        L = lcm(*(e.denominator for e in row))
        scale *= L
        m.append([int(e * L) for e in row])
    size = len(m)
    sign = prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        rk = m[k]
        pivot = rk[k]
        for ri in m[k + 1:]:
            head = ri[k]
            for j in range(k + 1, size):
                ri[j] = (pivot * ri[j] - head * rk[j]) // prev
        prev = pivot
    return Fraction(sign * m[-1][-1], scale) if m else Fraction(1)


def hankel_P(seq: MomentSequence, n: int) -> Fraction:
    """P_n = -det(a_{i+j}), i,j = 0..n+1."""
    # Entry (0,0) is always a_0 = 0, so elimination starts with a row swap;
    # this is the routine path, not an edge case.
    return -det_rational(_hankel_matrix(seq, n, 0))


def hankel_Q(seq: MomentSequence, n: int) -> Fraction:
    """Q_n = det(a_{i+j+2}), i,j = 0..n; raises NonPositiveQ unless Q_n > 0."""
    value = det_rational(_hankel_matrix(seq, n, 2))
    if value <= 0:
        raise NonPositiveQ(n, value)
    return value


def _condense(moment, divide, n_max: int) -> Iterator[tuple]:
    """Yield (-H^(0)_{n+2}, H^(2)_{n+1}) for n = 0, 1, ... up to n_max.

    ``moment(j)`` gives a_j and ``divide`` the quotient of two entries, in
    whichever arithmetic the caller works. The table stops before the
    first row it cannot finish: at a zero divisor, or at a moment that
    ``moment`` gives as None.
    """
    older, old = None, [1, 0]  # anti-diagonals j - 2 and j - 1; a_0 = 0
    for n in range(n_max + 1):
        for j in (2 * n + 1, 2 * n + 2):
            diagonal = [1, moment(j)]  # diagonal[m] = H^(j-2m+2)_m
            if diagonal[1] is None:
                return
            for m in range(1, j // 2 + 1):
                if older[m - 1] == 0:
                    return
                diagonal.append(divide(older[m] * diagonal[m] - old[m] ** 2, older[m - 1]))
            older, old = old, diagonal
        yield -old[n + 2], old[n + 1]


def hankel_sweep(seq: MomentSequence, n_max: int) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield (P_n, Q_n) for n = 0 .. n_max in order.

    Step n reads the moments a_{2n+1} and then a_{2n+2}, and no others, so
    a short sequence fails at the first index it lacks; Q_n <= 0 raises
    NonPositiveQ after both reads.
    """
    done = 0
    for P, Q in _condense(seq.moment, Fraction.__truediv__, n_max):
        if Q <= 0:
            raise NonPositiveQ(done, Q)
        yield P, Q
        done += 1
    # The identity left row `done` open: evaluate it and every later index
    # by elimination instead.
    for n in range(done, n_max + 1):
        yield hankel_P(seq, n), hankel_Q(seq, n)


def residue(x: Fraction, p: int) -> int | None:
    """x mod the prime p, or None when p divides the denominator of x."""
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p


def hankel_residues(seq: MomentSequence, n_max: int, p: int) -> Iterator[tuple[int, int]]:
    """Yield (P_n mod p, Q_n mod p) for n = 0, 1, ... up to n_max.

    The same table as ``hankel_sweep``, over the integers mod the prime p:
    word-size entries instead of growing fractions. It stops before the
    first row it cannot form, at a moment whose denominator p divides or
    at a divisor that is 0 mod p; residues carry no sign, so Q_n is not
    checked.
    """
    for P, Q in _condense(lambda j: residue(seq.moment(j), p),
                          lambda x, d: x * pow(d, -1, p) % p, n_max):
        yield P % p, Q
