"""Hankel determinants from moment sequences, exact or mod a prime.

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
entries per step, O(N^2) for a sweep.

The divisor H^(k+2)_{m-1} can be zero for a custom sequence (the odd
moments of a symmetric measure vanish, for one). At the first zero divisor
the table hands over to a bordered elimination, which gives that row and
every later one: with row and column 0 of P_n's matrix moved last,
P_n = -det M_n for

    M_n = [[H_n, b_n], [b_n^T, 0]],   H_n = (a_{i+j+2})_{i,j<=n},  b_n = (a_1 .. a_{n+1}),

and one-step fraction-free elimination (Bareiss 1968) grows M_n by one row
and column per n, O(n^2) operations per step. Its pivots are Q_0, Q_1, ...,
so it never searches for one.

Both algorithms take the list a_0 = 0, a_1 .. a_L, read in one
``MomentSequence.prefix`` call, and run as far as it goes, to the rows
n < L/2. On integer moments every division is exact (Sylvester's
identity), so the exact route runs on ints and ``//`` there, and on
Fractions and ``/`` otherwise.

``hankel_residues`` runs the same two algorithms on the moments reduced
mod a prime p, multiplying by modular inverses: its entries stay below p
however large the exact determinants grow. The table takes one ``pow``
per anti-diagonal, for the inverses of all its divisors at once; the
elimination, which runs only past a zero divisor, one per division. A
moment whose denominator p divides, or a pivot that p divides, ends it
early; the caller decides what replaces the rest.
"""

import operator
from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, islice

from .errors import NonPositiveQ
from .moments import MomentSequence


def _condense(a: list, divide, p: int | None = None) -> Iterator[tuple]:
    """Yield (-H^(0)_{n+2}, H^(2)_{n+1}) for n = 0, 1, ... as far as the list goes.

    ``a`` is the list a_0 = 0, a_1 .. a_L, which finishes the rows n < L/2,
    and ``divide`` the quotient of two entries, in whichever arithmetic the
    caller works. Each anti-diagonal divides by entries of the one two
    before it. With a prime ``p`` the entries are residues mod p, and the
    table multiplies by those divisors' inverses, found for the whole
    anti-diagonal at once (``_inverses``). At a zero divisor the rest, from
    the row the table cannot finish, come from ``_eliminate`` on the same
    list, which divides with ``divide``.
    """
    scale = divide if p is None else (lambda x, inverse: x * inverse % p)
    older, old = [], [1, 0]  # anti-diagonals j - 2 and j - 1; a_0 = 0
    for n in range((len(a) - 1) // 2):
        for j in (2 * n + 1, 2 * n + 2):
            divisors = older[:j // 2]  # diagonal[m + 1] divides by divisors[m]
            if 0 in divisors:
                yield from islice(_eliminate(a, divide), n, None)
                return
            diagonal = [1, a[j]]  # diagonal[m] = H^(j-2m+2)_m
            for m, d in enumerate(divisors if p is None else _inverses(divisors, p), 1):
                diagonal.append(scale(older[m] * diagonal[m] - old[m] ** 2, d))
            older, old = old, diagonal
        yield -old[n + 2], old[n + 1]


def _inverses(xs: list[int], p: int) -> list[int]:
    """The inverses mod the prime p of the nonzero residues ``xs``, from one
    ``pow``: Montgomery's simultaneous inversion (Montgomery 1987, "Speeding
    the Pollard and elliptic curve methods of factorization", 10.3.1)."""
    prefix = list(accumulate(xs, lambda u, v: u * v % p, initial=1))
    inverse = pow(prefix.pop(), -1, p)  # of the product of all of xs
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        out[i] = prefix[i] * inverse % p
        inverse = inverse * xs[i] % p
    return out


def _eliminate(a: list, divide) -> Iterator[tuple]:
    """Yield (-det M_n, Q_n) for n = 0, 1, ... as far as the list goes.

    Takes ``_condense``'s ``a`` and ``divide``. Step n takes a_{2n+1} and
    a_{2n+2} and reduces H_n's new row and its border entry B_n by the n
    finished rows, whose frozen entries are, by symmetry, the column it
    needs. The corner steps as c <- (Q_n c - B_n^2) / Q_{n-1} to det M_n.
    It stops early after yielding a pivot that is 0.
    """
    rows, border = [], []  # rows[k][j]: row k of H after k steps, at column j
    corner = 0
    for n in range((len(a) - 1) // 2):
        row, b, last = a[n + 2:2 * n + 3], a[n + 1], 1
        for k, done in enumerate(rows):
            head, pivot = row[k], done[k]
            done.append(head)  # row k's column n is row n's column k
            for j in range(k + 1, n + 1):
                row[j] = divide(pivot * row[j] - head * done[j], last)
            b = divide(pivot * b - head * border[k], last)
            last = pivot
        rows.append(row)
        border.append(b)
        Q = row[n]
        corner = divide(Q * corner - b * b, last)
        yield -corner, Q
        if Q == 0:
            return


def hankel_sweep(seq: MomentSequence, n_max: int) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield (P_n, Q_n) for n = 0 .. n_max in order.

    Reads a_1 .. a_{2 n_max + 2} before the first row. The table runs on
    ints with exact ``//`` when every moment read is an integer, and on
    Fractions otherwise; each pair leaves as Fractions. Q_n <= 0 raises
    NonPositiveQ, with the recurrence's squared norm t_n = Q_n / Q_{n-1}
    (Q_{-1} = 1). A short sequence yields every pair its moments support,
    then raises the IndexOutOfRange of the first moment it lacks.
    """
    a, short = seq.prefix(2 * n_max + 2)
    if all(x.denominator == 1 for x in a):
        a, divide = [0, *(x.numerator for x in a)], operator.floordiv
    else:
        a, divide = [0, *a], operator.truediv
    last = 1
    for n, (P, Q) in enumerate(_condense(a, divide)):
        P, Q = Fraction(P), Fraction(Q)
        if Q <= 0:
            raise NonPositiveQ(n, Q / last)
        yield P, Q
        last = Q
    if short is not None:
        raise short


# perfbench/test_perfbench.py still calls hankel_P and hankel_Q; ROADMAP item 3 removes them.
def _last_pair(seq: MomentSequence, n: int) -> tuple[Fraction, Fraction]:
    """(P_n, Q_n), the last pair of a sweep to n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for pair in hankel_sweep(seq, n):
        pass
    return pair


def hankel_P(seq: MomentSequence, n: int) -> Fraction:
    """P_n = -det(a_{i+j}), i,j = 0..n+1."""
    return _last_pair(seq, n)[0]


def hankel_Q(seq: MomentSequence, n: int) -> Fraction:
    """Q_n = det(a_{i+j+2}), i,j = 0..n."""
    return _last_pair(seq, n)[1]


def residue(x: Fraction, p: int) -> int | None:
    """x mod the prime p, or None when p divides the denominator of x."""
    if x.denominator % p == 0:
        return None
    return x.numerator * pow(x.denominator, -1, p) % p


def hankel_residues(seq: MomentSequence, n_max: int, p: int) -> Iterator[tuple[int, int]]:
    """Yield (P_n mod p, Q_n mod p) for n = 0, 1, ... up to n_max.

    The same rows as ``hankel_sweep``, over the integers mod the prime p,
    from the same read of a_1 .. a_{2 n_max + 2}. They stop before a moment
    whose denominator p divides and after a pivot Q_n that p divides;
    residues carry no sign, so Q_n is not checked. Rows that reach the end
    of a short sequence raise as ``hankel_sweep`` does.
    """
    a, short = seq.prefix(2 * n_max + 2)
    reduced = [0, *(residue(x, p) for x in a)]
    if None in reduced:  # the residues end there, not the moments
        del reduced[reduced.index(None):]
        short = None
    divide, rows = (lambda x, d: x * pow(d, -1, p) % p), 0
    for rows, (P, Q) in enumerate(_condense(reduced, divide, p), 1):
        yield P % p, Q
    if short is not None and rows == len(a) // 2:
        raise short
