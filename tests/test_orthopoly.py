from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import prod

import pytest

from hankel_approx.errors import OrthogonalityLost, PositivityViolation
from hankel_approx.hankel import hankel_P, hankel_Q
from hankel_approx.moments import custom_sequence
from hankel_approx.orthopoly import approximant_ortho, ortho_states

from .oracles import inner_product, polynomials


def explicit_form(f, g, seq):
    # The defining double sum, written out directly.
    total = Fraction(0)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            total += Fraction(fi) * Fraction(gj) * seq.moment(i + j + 2)
    return total


def test_inner_product_matches_double_sum(gompertz_seq):
    rng = random.Random(31415)
    for _ in range(40):
        f = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        g = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4)))
        assert inner_product(f, g, gompertz_seq) == explicit_form(f, g, gompertz_seq)
        assert inner_product(f, g, gompertz_seq) == inner_product(g, f, gompertz_seq)


def test_inner_product_is_bilinear(zeta2_seq):
    f = (Fraction(1), Fraction(-2))
    g = (Fraction(3), Fraction(1, 2), Fraction(1))
    h = (Fraction(0), Fraction(1))
    lam = Fraction(7, 3)
    left = inner_product(tuple(a + lam * b for a, b in zip(f, h)), g, zeta2_seq)
    right = inner_product(f, g, zeta2_seq) + lam * inner_product(h, g, zeta2_seq)
    assert left == right


def test_ortho_init(gompertz_seq):
    state = next(ortho_states(gompertz_seq, 0))
    assert state.m == 0
    assert state.t == (2,)  # a_2
    assert state.recurrence == ()
    assert state.partial_sum == Fraction(1, 2)  # a_1^2 / a_2


def test_ortho_init_rejects_nonpositive_a2():
    seq = custom_sequence("bad", [Fraction(1), Fraction(-1)])
    with pytest.raises(PositivityViolation) as excinfo:
        next(ortho_states(seq, 3))
    assert excinfo.value.index == 0
    assert excinfo.value.value == -1


def test_ortho_step_returns_new_state(gompertz_seq):
    s0, s1 = ortho_states(gompertz_seq, 1)
    assert s0.m == 0 and len(s0.t) == 1  # original untouched
    assert s1.m == 1 and s1.t == (2, Fraction(7, 2))
    assert s1.recurrence == ((Fraction(5, 2), 2),)  # alpha_0 = a_3/a_2, beta_0 = t_0
    assert polynomials(s1)[1] == (Fraction(-5, 2), 1)  # monic, degree 1
    assert s1.partial_sum == Fraction(4, 7)
    with pytest.raises(FrozenInstanceError):
        s1.m = 2


def test_ortho_states_yields_every_index(zeta3_seq):
    states = list(ortho_states(zeta3_seq, 6))
    assert [st.m for st in states] == list(range(7))
    for st in states:
        assert len(st.t) == st.m + 1
        assert len(st.recurrence) == st.m
        polys = polynomials(st)
        assert [len(q) for q in polys] == list(range(1, st.m + 2))
        assert all(q[-1] == 1 for q in polys)


def test_orthogonality_small(gompertz_seq):
    last = list(ortho_states(gompertz_seq, 8))[-1]
    polys = polynomials(last)
    for i in range(len(polys)):
        for j in range(i):
            assert inner_product(polys[i], polys[j], gompertz_seq) == 0
        assert inner_product(polys[i], polys[i], gompertz_seq) == last.t[i]


def test_validated_step_rejects_lost_orthogonality(gompertz_seq, skewed_alpha_1):
    states = []
    with pytest.raises(OrthogonalityLost) as excinfo:
        for state in ortho_states(gompertz_seq, 4):
            states.append(state)
    assert [st.m for st in states] == [0, 1]
    # The skewed q_2 is still orthogonal to q_0; the scan reports q_1.
    assert (excinfo.value.degree, excinfo.value.other) == (2, 1)
    assert excinfo.value.residual == -states[1].t[1]


def test_positivity_violation_stops_after_yielded_states():
    seq = custom_sequence("flat", [Fraction(1)] * 6)
    states = []
    with pytest.raises(PositivityViolation) as excinfo:
        for state in ortho_states(seq, 3):
            states.append(state)
    exc = excinfo.value
    assert exc.index == 1
    assert exc.value == 0
    assert [(st.m, st.partial_sum) for st in states] == [(0, 1)]


def test_engines_agree_small(gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
    for seq in (gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
        for n in range(4):
            assert approximant_ortho(seq, n) == hankel_P(seq, n) / hankel_Q(seq, n)


def test_norm_product_equals_hankel_Q(gompertz_seq):
    for state in ortho_states(gompertz_seq, 6):
        assert prod(state.t) == hankel_Q(gompertz_seq, state.m)


def test_approximant_ortho_known_values(zeta2_seq):
    assert approximant_ortho(zeta2_seq, 0) == Fraction(4, 3)
    assert approximant_ortho(zeta2_seq, 1) == Fraction(135, 89)
    with pytest.raises(ValueError):
        approximant_ortho(zeta2_seq, -1)


def test_partial_sums_nondecreasing(gompertz_seq):
    values = [st.partial_sum for st in ortho_states(gompertz_seq, 10)]
    assert all(a <= b for a, b in zip(values, values[1:]))
