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
conflating them is the classic off-by-one here. The code keeps them apart
by storing column l at position l + 1: entry j of a row is
sigma_{k,j-1}, so s_k is entry 0 and t_k is entry k + 1.

Only two rows of the table are kept, each whole from l = -1. Row k holds
sigma_{k,l}, l = -1 .. 2 n_max - k, as a list N_k of Python ints over one
positive denominator d_k, reduced so that d_k and the entries share no
factor; row 0 is a_1 .. a_{2n+2} over the lcm of their denominators. Row
k's entries l = 0 .. k-1 are zeros, s_k = N_k[0]/d_k and t_k = N_k[k+1]/d_k.
Each row also carries t_k and r_k = sigma_{k,k+1}/t_k = N_k[k+2]/N_k[k+1],
reduced once when the row is built, and alpha_k = r_k - r_{k-1},
beta_k = t_k/t_{k-1} are read off them. With alpha_k = u/v and
beta_k = w/z in lowest terms, f = gcd(w, d_{k-1}) is cancelled first, so
that C = lcm(v d_k, z d_{k-1}/f) is the least common denominator of the
three terms; with A = C/(v d_k) and B = w C/(z d_{k-1}), row k+1 is

    M_j = A (v N_k[j+1] - u N_k[j]) - B N_{k-1}[j]      over C,

one formula for every entry, s_{k+1} = M_0/C and the zeros included. It
is reduced by the row's gcd g = gcd(C, M_0, ..., M_r). (Left in, f would
ride along in C and in every product, only for that gcd to divide it back
out.) That takes one big gcd, not one per entry. Every common divisor of
C and the M_j divides their sum, so with h = gcd(C, M_0 + ... + M_r)

    g = gcd(C, M_0 + ... + M_r, M_0, ..., M_r) = gcd(h, M_0 mod h, ..., M_r mod h),

whatever the sum is. In practice h is g itself or g times a few small
primes, so the second gcd runs on remainders below h; with
M_j = q_j h + r_j, g divides every r_j, and the reduced entries are
q_j (h/g) + r_j/g over C/g. If h = 1 the row is reduced already. A zero
entry costs one divmod of 0, and s_k one more entry in the same pass.

Row -1 is an ordinary row: zero entries (q_{-1} = 0, so s_{-1} = 0) over
d_{-1} = 1, t_{-1} = 1 (the empty product of norms) and r_{-1} = 0, which
give alpha_0 = r_0 and the convention beta_0 = t_0. The first step needs
no case of its own: sigma_{0,0} = a_2 is entry 1 of row 0, so entry 0 of
row 1 is s_1 = a_2 - alpha_0 s_0, and later steps read the zero
sigma_{k,0} in its place.

Orthogonality makes sigma_{k+1,l} = 0 for 0 <= l <= k. Only l = k - 1 and
l = k are checked, in that order: they are M_k and M_{k+1} over C. The
lower entries are built only from zero entries of rows k and k-1, which
passed the same check, so by induction they are zero. Since q_l is monic,
the first nonzero one equals <q_{k+1}, q_l> and raises OrthogonalityLost.

The sweep to n_max reads a_1 .. a_{2 n_max + 2} before its first row, in
one ``MomentSequence.prefix`` call, as ``hankel_sweep`` does. A short
sequence still yields every pair its moments support: step n needs
a_{2n+1} for alpha_{n-1} and the check, then a_{2n+2} for t_n, and the
first one missing raises its IndexOutOfRange there, as if read in turn.

Positive definiteness of the form is exactly the hypothesis that makes the
construction work. It is not assumed: the first nonpositive t_n raises
PositivityViolation, an expected outcome for user-supplied sequences; the
pairs yielded before it stay valid.
"""

from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm

from .errors import OrthogonalityLost, PositivityViolation
from .moments import MomentSequence


def _coefficients(row: tuple, prev: tuple, k: int) -> tuple:
    """(alpha_k, beta_k) read off rows k and k-1, each (numerators of
    sigma_{k,l} from l = -1 on, denominator, t_k, sigma_{k,k+1}/t_k)."""
    return row[3] - prev[3], row[2] / prev[2]


def ortho_sweep(seq: MomentSequence, n_max: int) -> Iterator[tuple]:
    """Yield (A_n N_n, N_n) = (P_n, Q_n), N_n = t_0 ... t_n, for n = 0 .. n_max.

    A short sequence yields every pair its moments support, then raises
    the IndexOutOfRange of the first moment it lacks."""
    moments, short = seq.prefix(2 * n_max + 2)
    d = lcm(*(a.denominator for a in moments))
    N = [a.numerator * (d // a.denominator) for a in moments]
    row = [0] * len(N), 1, 1, 0  # row -1: q_{-1} = 0, t_{-1} = 1, r_{-1} = 0
    partial_sum, norm = Fraction(0), Fraction(1)
    for n in range(n_max + 1):
        if n:
            if len(N) < n + 2:  # alpha_{n-1} needs a_{2n+1}
                raise short
            alpha, beta = _coefficients(row, prev, n - 1)
            M, e = prev[:2]
            f = gcd(beta.numerator, e)
            X, Y = alpha.denominator * d, beta.denominator * (e // f)
            h = gcd(X, Y)
            A, B = Y // h, beta.numerator // f * (X // h)  # C = lcm(X, Y) = A X, B = w C/(z e)
            C, Av, Au = A * X, A * alpha.denominator, A * alpha.numerator
            nxt = [Av * N[j + 1] - Au * N[j] - B * M[j] for j in range(len(N) - 1)]
            for l in range(max(n - 2, 0), n):
                if nxt[l + 1]:
                    raise OrthogonalityLost(n, l, Fraction(nxt[l + 1], C))
            N, d, h = nxt, C, gcd(C, sum(nxt))
            if h > 1:  # else gcd(C, *nxt) = 1 already
                qr = [divmod(x, h) for x in nxt]
                g = gcd(h, *(r for _, r in qr))
                c = h // g
                N, d = [q * c + r // g for q, r in qr], C // g
        if len(N) < n + 2:  # t_n needs a_{2n+2}
            raise short
        t_n = Fraction(N[n + 1], d)
        if t_n <= 0:
            raise PositivityViolation(n, t_n)
        prev, row = row, (N, d, t_n, Fraction(N[n + 2], N[n + 1]) if len(N) > n + 2 else None)
        partial_sum += Fraction(N[0] ** 2, d * N[n + 1])
        norm *= t_n
        yield partial_sum * norm, norm
