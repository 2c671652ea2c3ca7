"""Exact rational approximants to integral-defined constants.

Given the moments a_n = L(e_n) of a linear functional, two exact engines
compute the approximant sequence P_n/Q_n that climbs toward L(e_0): a
Hankel-determinant path (a condensation table, with a bordered
fraction-free elimination past a zero divisor) and an incremental
orthogonal-polynomial recurrence. Built-in moment families target the
Euler-Mascheroni constant, the Euler-Gompertz constant, and zeta(k).
"""

from .exactnum import rat_to_decimal
from .hankel import hankel_sweep
from .moments import (
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    load_moments,
    zeta_sequence,
)
from .orthopoly import ortho_sweep

__version__ = "0.1.0"

__all__ = [
    "factorial_sequence",
    "gamma_sequence",
    "gompertz_sequence",
    "hankel_sweep",
    "load_moments",
    "ortho_sweep",
    "rat_to_decimal",
    "zeta_sequence",
]
