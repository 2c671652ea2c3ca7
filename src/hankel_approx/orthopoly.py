"""Approximants via monic orthogonal polynomials built from moments.

For the bilinear form (f, g) -> L(x^2 f g), whose Gram entries are the
shifted moments a_{i+j+2}, the monic orthogonal family q_0, q_1, ... comes
out of the classical three-term recurrence

    q_{m+1} = (x - alpha_m) q_m - beta_m q_{m-1}

with alpha_m = <x q_m, q_m>/t_m and beta_m = t_m/t_{m-1}, where
t_m = <q_m, q_m>. The running sum

    A_m = sum_{i=0..m} s_i^2 / t_i,      s_i = sum_j (q_i)_j a_{j+1}

equals the determinant ratio P_m/Q_m at every step, and the t_i multiply
to Q_m. This gives an incremental O(m^2)-per-step alternative to the
determinant path and an independent cross-check of it.

Index-shift warning: the s_i consume moments a_{j+1} while the bilinear
form consumes a_{i+j+2}. Both shifts come from the same embedding, every
polynomial is implicitly multiplied by x once, so <x q_i, x q_j> = L(x^2
q_i q_j) and L(x q_i) = sum_j (q_i)_j a_{j+1}. Keep the two shifts
distinct; conflating them is the classic off-by-one here.

Positive definiteness of the form is exactly the hypothesis that makes the
construction work. It is not assumed: the first nonpositive t_m raises
PositivityViolation carrying the state built so far, which is an expected
outcome for user-supplied sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Iterator

from .errors import OrthogonalityLost, PositivityViolation
from .moments import MomentSequence

# Polynomial coefficients are tuples of Fractions indexed by degree,
# leading coefficient last; every q_m produced here is monic.
PolyCoeffs = tuple


def inner_product(f, g, seq: MomentSequence) -> Fraction:
    """<f, g> = sum_{i,j} f_i g_j a_{i+j+2}, exactly."""
    conv = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                if gj:
                    conv[i + j] += fi * gj
    return sum(
        (c * seq.moment(d + 2) for d, c in enumerate(conv) if c), Fraction(0)
    )


def _first_moment(f, seq: MomentSequence) -> Fraction:
    # L(x f) = sum_j f_j a_{j+1}; the single-shift side of the embedding.
    return sum((c * seq.moment(j + 1) for j, c in enumerate(f) if c), Fraction(0))


@dataclass
class OrthoState:
    """State of the recurrence after computing q_0 .. q_m.

    ``polys`` keeps every monic polynomial generated so far (the last two
    drive the recurrence, the rest serve orthogonality validation), ``t``
    the squared norms, ``s`` the linear moments, and ``partial_sum`` the
    approximant A_m. A state is a plain value; steps return new states.
    """

    m: int
    polys: list = field(default_factory=list)
    t: list = field(default_factory=list)
    s: list = field(default_factory=list)
    partial_sum: Fraction = Fraction(0)

    @property
    def q_curr(self) -> PolyCoeffs:
        return self.polys[-1]

    @property
    def q_prev(self) -> PolyCoeffs:
        return self.polys[-2] if len(self.polys) >= 2 else ()


def ortho_init(seq: MomentSequence) -> OrthoState:
    """Start the recurrence: q_0 = 1, t_0 = a_2, s_0 = a_1, A_0 = a_1^2/a_2."""
    a1 = seq.moment(1)
    a2 = seq.moment(2)
    if a2 <= 0:
        raise PositivityViolation(0, a2)
    return OrthoState(
        m=0,
        polys=[(Fraction(1),)],
        t=[a2],
        s=[a1],
        partial_sum=a1 * a1 / a2,
    )


def ortho_step(state: OrthoState, seq: MomentSequence, *,
               validate: bool = False) -> OrthoState:
    """Advance from q_m to q_{m+1} and fold s^2/t into the partial sum.

    With ``validate`` the new polynomial is checked orthogonal against all
    previous ones, guarding the recurrence against transcription slips; a
    nonzero residual raises OrthogonalityLost.
    Raises PositivityViolation (carrying the current state) when the new
    squared norm fails to be positive.
    """
    m = state.m
    q_curr = state.q_curr
    t_m = state.t[m]

    xq = (Fraction(0),) + tuple(q_curr)
    alpha = inner_product(xq, q_curr, seq) / t_m
    coeffs = list(xq)
    for i, c in enumerate(q_curr):
        coeffs[i] -= alpha * c
    if m >= 1:
        beta = t_m / state.t[m - 1]
        for i, c in enumerate(state.q_prev):
            coeffs[i] -= beta * c
    q_next = tuple(coeffs)

    t_next = inner_product(q_next, q_next, seq)
    if t_next <= 0:
        raise PositivityViolation(m + 1, t_next, state=state)
    if validate:
        for j, q_j in enumerate(state.polys):
            residual = inner_product(q_next, q_j, seq)
            if residual != 0:
                raise OrthogonalityLost(m + 1, j, residual)
    s_next = _first_moment(q_next, seq)

    return OrthoState(
        m=m + 1,
        polys=state.polys + [q_next],
        t=state.t + [t_next],
        s=state.s + [s_next],
        partial_sum=state.partial_sum + s_next * s_next / t_next,
    )


def ortho_states(seq: MomentSequence, n_max: int, *,
                 validate: bool = False) -> Iterator[OrthoState]:
    """Yield the states for n = 0 .. n_max in order."""
    state = ortho_init(seq)
    yield state
    for _ in range(n_max):
        state = ortho_step(state, seq, validate=validate)
        yield state


def approximant_ortho(seq: MomentSequence, n: int, *,
                      validate: bool = False) -> Fraction:
    """A_n after n steps; equals the determinant ratio P_n/Q_n."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for state in ortho_states(seq, n, validate=validate):
        pass
    return state.partial_sum


def norm_product(state: OrthoState) -> Fraction:
    """prod_i t_i, which equals the determinant Q_m for this state."""
    return prod(state.t, start=Fraction(1))
