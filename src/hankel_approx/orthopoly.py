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
cross-check of the determinant path that needs O(m) new table entries.

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

State n extends the table by the anti-diagonal k + l = 2n - 1 (the moment
a_{2n+1}), which completes alpha_{n-1}, then by row n up to l = n - 1,
then by the anti-diagonal k + l = 2n (the moment a_{2n+2}), which ends at
t_n. Orthogonality makes sigma_{n,l} = 0 for 0 <= l < n. Those entries lie
on the way to s_n, so each one is checked as it is computed; since q_l is
monic, the first nonzero one equals <q_n, q_l> and raises
OrthogonalityLost.

Positive definiteness of the form is exactly the hypothesis that makes the
construction work. It is not assumed: the first nonpositive t_n raises
PositivityViolation, an expected outcome for user-supplied sequences; the
pairs yielded before it stay valid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .errors import OrthogonalityLost, PositivityViolation
from .moments import MomentSequence


def _coefficients(sigma: list, t: list, k: int) -> tuple:
    """(alpha_k, beta_k) read off rows k and k-1 of the table."""
    if k == 0:  # beta_0 = t_0 by convention: it multiplies q_{-1} = 0
        return sigma[0][2] / t[0], t[0]
    return sigma[k][k + 2] / t[k] - sigma[k - 1][k + 1] / t[k - 1], t[k] / t[k - 1]


def _entry(sigma: list, recurrence: list, k: int, l: int) -> Fraction:
    # sigma_{k,l} for k >= 1; sigma[k][l + 1] holds sigma_{k,l}.
    alpha, beta = recurrence[k - 1]
    value = sigma[k - 1][l + 2] - alpha * sigma[k - 1][l + 1]
    if k >= 2:
        value -= beta * sigma[k - 2][l + 1]
    return value


def _extend_diagonal(sigma: list, recurrence: list, moment: Fraction, top: int) -> None:
    """Append the next anti-diagonal to rows 0 .. top, starting from its moment."""
    sigma[0].append(moment)
    for k in range(1, top + 1):
        sigma[k].append(_entry(sigma, recurrence, k, len(sigma[k]) - 1))


def ortho_sweep(seq: MomentSequence, n_max: int) -> Iterator[tuple]:
    """Yield (A_n N_n, N_n) = (P_n, Q_n), N_n = t_0 ... t_n, for n = 0 .. n_max.

    Step n reads the moments a_{2n+1} and then a_{2n+2}, and no others, so
    a short sequence fails at the first index it lacks.
    """
    sigma = [[]]  # sigma[k][l + 1] = sigma_{k,l}
    recurrence, t = [], []
    partial_sum, norm = Fraction(0), Fraction(1)
    for n in range(n_max + 1):
        _extend_diagonal(sigma, recurrence, seq.moment(2 * n + 1), n - 1)
        if n:
            recurrence.append(_coefficients(sigma, t, n - 1))
            row = []
            sigma.append(row)
            for l in range(-1, n):
                row.append(_entry(sigma, recurrence, n, l))
                if l >= 0 and row[-1] != 0:
                    raise OrthogonalityLost(n, l, row[-1])
        _extend_diagonal(sigma, recurrence, seq.moment(2 * n + 2), n)
        t_n = sigma[n][n + 1]
        if t_n <= 0:
            raise PositivityViolation(n, t_n)
        t.append(t_n)
        s_n = sigma[n][0]
        partial_sum += s_n * s_n / t_n
        norm *= t_n
        yield partial_sum * norm, norm


def approximant_ortho(seq: MomentSequence, n: int) -> Fraction:
    """A_n after n steps; equals the determinant ratio P_n/Q_n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for P, Q in ortho_sweep(seq, n):
        pass
    return P / Q
