"""Approximants via monic orthogonal polynomials, from a table of mixed moments.

For the bilinear form <f, g> = L(x^2 f g), whose Gram entries are the
shifted moments a_{i+j+2}, the monic orthogonal family q_0, q_1, ... obeys
the classical three-term recurrence

    q_{k+1} = (x - alpha_k) q_k - beta_k q_{k-1},      q_0 = 1, q_{-1} = 0,

and the running sum

    A_m = sum_{i=0..m} s_i^2 / t_i,      t_i = <q_i, q_i>,  s_i = L(x q_i),

equals the determinant ratio P_m/Q_m at every step, while the t_i
multiply to Q_m. So with N_m = t_0 ... t_m the pair (A_m N_m, N_m) is
(P_m, Q_m) itself; ``ortho_sweep`` yields it, like ``hankel_sweep``, and
the driver compares the two pairs whole. This is an independent
cross-check of the determinant path; the sweep to m fills O(m^2) table
entries.

The polynomials themselves are never formed. Chebyshev's algorithm
(Gautschi 1982, "On generating orthogonal polynomials"; Gautschi 2004,
section 2.1) works on the mixed moments

    sigma_{k,l} = L(x^2 q_k x^l),      l >= -1,

which start from sigma_{0,l} = a_{l+2} and obey the recurrence in k

    sigma_{k,l} = sigma_{k-1,l+1} - alpha_{k-1} sigma_{k-1,l} - beta_{k-1} sigma_{k-2,l}.

Everything the construction needs is read off the table:

    t_k = sigma_{k,k},    s_k = sigma_{k,-1},    beta_k = t_k / t_{k-1},
    alpha_k = sigma_{k,k+1} / t_k - sigma_{k-1,k} / t_{k-1}.

Index-shift warning: the form consumes a_{i+j+2} while s_k consumes
a_{j+1}. Both shifts come from the same embedding, every polynomial is
implicitly multiplied by x once, and the column l = -1 of the table is the
single shift: sigma_{k,-1} = L(x q_k). Keep the two shifts distinct;
conflating them is the classic off-by-one here.

Only two rows of the table are kept. Row k holds sigma_{k,k+i}, i >= 0,
as a list N_k of Python ints over one positive denominator d_k, reduced
so that d_k and the entries share no factor; row 0 is a_2 .. a_{2n+2}
over the lcm of their denominators. With alpha_k = u/v and beta_k = w/z
in lowest terms, C = lcm(v d_k, z d_{k-1}), A = C/(v d_k) and
B = w C/(z d_{k-1}), row k+1 is

    M_i = A (v N_k[i+2] - u N_k[i+1]) - B N_{k-1}[i+2]      over C,

reduced by one gcd of C and every M_i. The denominators cancel in
alpha_k = N_k[1]/N_k[0] - N_{k-1}[1]/N_{k-1}[0], and beta_k = t_k/t_{k-1}.
Row -1 is zero (q_{-1} = 0), and s_{k+1} = sigma_{k,0} - alpha_k s_k -
beta_k s_{k-1}, where sigma_{k,0} is a_2 for k = 0 and 0 after it.

Orthogonality makes sigma_{k+1,l} = 0 for 0 <= l <= k. Only l = k - 1 and
l = k are checked, in that order: over C they are A v N_k[0] - B N_{k-1}[0]
and A (v N_k[1] - u N_k[0]) - B N_{k-1}[1]. The lower entries are built
only from zero entries of rows k and k-1, which passed the same check, so
by induction they are zero. Since q_l is monic, the first nonzero one
equals <q_{k+1}, q_l> and raises OrthogonalityLost.

The sweep to n_max reads a_1 .. a_{2 n_max + 2} before its first row. A
short sequence still yields every pair its moments support: step n needs
a_{2n+1} for alpha_{n-1} and the check, then a_{2n+2} for t_n, and the
first one missing raises its IndexOutOfRange there, as if read in turn.

Positive definiteness of the form is exactly the hypothesis that makes the
construction work. It is not assumed: the first nonpositive t_n raises
PositivityViolation, an expected outcome for user-supplied sequences; the
pairs yielded before it stay valid.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm

from .errors import IndexOutOfRange, OrthogonalityLost, PositivityViolation
from .moments import MomentSequence


def _coefficients(row: tuple, prev: tuple, k: int) -> tuple:
    """(alpha_k, beta_k) read off rows k and k-1, each (numerators, denominator)."""
    (N, d), (M, e) = row, prev
    if k == 0:  # beta_0 = t_0 by convention: it multiplies q_{-1} = 0
        return Fraction(N[1], N[0]), Fraction(N[0], d)
    return Fraction(N[1], N[0]) - Fraction(M[1], M[0]), Fraction(N[0] * e, d * M[0])


def ortho_sweep(seq: MomentSequence, n_max: int) -> Iterator[tuple]:
    """Yield (A_n N_n, N_n) = (P_n, Q_n), N_n = t_0 ... t_n, for n = 0 .. n_max.

    A short sequence yields every pair its moments support, then raises
    the IndexOutOfRange of the first moment it lacks."""
    moments, short = [], None
    try:
        while len(moments) < 2 * n_max + 2:
            moments.append(seq.moment(len(moments) + 1))
    except IndexOutOfRange as exc:
        short = exc
    d = lcm(*(a.denominator for a in moments[1:]))
    row = [a.numerator * (d // a.denominator) for a in moments[1:]], d
    prev = [0] * len(row[0]), 1  # row -1: q_{-1} = 0
    s, s_prev = moments[0] if moments else None, 0
    partial_sum, norm = Fraction(0), Fraction(1)
    for n in range(n_max + 1):
        if n:
            if len(row[0]) < 2:  # alpha_{n-1} needs a_{2n+1}
                raise short
            alpha, beta = _coefficients(row, prev, n - 1)
            (N, d), (M, e) = row, prev
            X, Y = alpha.denominator * d, beta.denominator * e
            h = gcd(X, Y)
            A, B = Y // h, beta.numerator * (X // h)  # C = lcm(X, Y) = A X, B = w C/Y
            C, Av, Au = A * X, A * alpha.denominator, A * alpha.numerator
            for l, value in ((n - 2, Av * N[0] - B * M[0]),
                             (n - 1, Av * N[1] - Au * N[0] - B * M[1])):
                if l >= 0 and value:
                    raise OrthogonalityLost(n, l, Fraction(value, C))
            nxt = [Av * N[i + 2] - Au * N[i + 1] - B * M[i + 2] for i in range(len(N) - 2)]
            g = gcd(C, *nxt)
            prev, row = row, ([x // g for x in nxt], C // g)
            s, s_prev = (moments[1] if n == 1 else 0) - alpha * s - beta * s_prev, s
        if not row[0]:  # t_n needs a_{2n+2}
            raise short
        t_n = Fraction(row[0][0], row[1])
        if t_n <= 0:
            raise PositivityViolation(n, t_n)
        partial_sum += s * s / t_n
        norm *= t_n
        yield partial_sum * norm, norm

