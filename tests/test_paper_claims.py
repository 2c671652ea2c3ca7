"""The abstract's last sentence in numbers.

The paper closes by noting that its approximations "are not strong enough
to study the arithmetic properties of these constants". An irrationality
argument would need den(A_n) |c - A_n| -> 0 for the approximants
A_n = P_n/Q_n of the constant c. On the convergent built-in families the
product grows instead: it exceeds 1 from n = 5 on and 10^50 at the top of
each range, because the denominators gain digits far faster than the
approximants gain correct ones. mpmath at 400 digits is the oracle for c.
"""

from __future__ import annotations

import mpmath
import pytest

from hankel_approx.driver import walk
from hankel_approx.moments import gamma_sequence, gompertz_sequence, zeta_sequence

# name -> (sequence, top n, the constant at the working precision)
FAMILIES = {
    "gamma": (gamma_sequence, 13, lambda: +mpmath.euler),
    "zeta(2)": (lambda: zeta_sequence(2), 25, lambda: mpmath.zeta(2)),
    "gompertz": (gompertz_sequence, 48, lambda: mpmath.e * mpmath.e1(1)),
}


def log10_products(seq, top: int, constant) -> list:
    """log10(den(A_n) |c - A_n|) for n = 0 .. top."""
    logs = []
    with mpmath.workdps(400):
        c = constant()
        for r in walk(seq, top):
            num, den = r.value.numerator, r.value.denominator
            logs.append(mpmath.log10(den * abs(c - mpmath.mpf(num) / den)))
    return logs


@pytest.mark.parametrize("name", FAMILIES)
def test_approximants_are_too_weak_for_irrationality(name):
    build, top, constant = FAMILIES[name]
    logs = log10_products(build(), top, constant)
    assert len(logs) == top + 1
    assert all(x > 0 for x in logs[5:]), name
    assert logs[-1] > 50, name
