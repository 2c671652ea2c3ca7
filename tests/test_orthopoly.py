from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hankel_approx.errors import OrthogonalityLost, PositivityViolation
from hankel_approx.hankel import hankel_P, hankel_Q
from hankel_approx.moments import custom_sequence, gompertz_sequence
from hankel_approx.orthopoly import (
    OrthoState,
    approximant_ortho,
    inner_product,
    norm_product,
    ortho_init,
    ortho_states,
    ortho_step,
)


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
    state = ortho_init(gompertz_seq)
    assert state.m == 0
    assert state.polys == [(Fraction(1),)]
    assert state.t == [2]  # a_2
    assert state.s == [1]  # a_1
    assert state.partial_sum == Fraction(1, 2)  # a_1^2 / a_2


def test_ortho_init_rejects_nonpositive_a2():
    seq = custom_sequence("bad", [Fraction(1), Fraction(-1)])
    with pytest.raises(PositivityViolation) as excinfo:
        ortho_init(seq)
    assert excinfo.value.index == 0
    assert excinfo.value.value == -1


def test_ortho_step_returns_new_state(gompertz_seq):
    s0 = ortho_init(gompertz_seq)
    s1 = ortho_step(s0, gompertz_seq)
    assert s0.m == 0 and len(s0.t) == 1  # original untouched
    assert s1.m == 1 and len(s1.t) == 2
    assert s1.q_prev == s0.q_curr
    q1 = s1.q_curr
    assert len(q1) == 2 and q1[-1] == 1  # monic, degree 1
    assert s1.partial_sum == Fraction(4, 7)


def test_ortho_states_yields_every_index(zeta3_seq):
    states = list(ortho_states(zeta3_seq, 6))
    assert [st.m for st in states] == list(range(7))
    for st in states:
        assert len(st.polys) == st.m + 1
        assert all(q[-1] == 1 for q in st.polys)


def test_orthogonality_small(gompertz_seq):
    states = list(ortho_states(gompertz_seq, 8, validate=True))
    last = states[-1]
    for i in range(len(last.polys)):
        for j in range(i):
            assert inner_product(last.polys[i], last.polys[j], gompertz_seq) == 0
        assert inner_product(last.polys[i], last.polys[i], gompertz_seq) == last.t[i]


def test_validated_step_rejects_lost_orthogonality(gompertz_seq):
    # q_1 = x is not orthogonal to q_0 = 1 here: <x, 1> = a_3 = 5.
    state = OrthoState(m=1, polys=[(Fraction(1),), (Fraction(0), Fraction(1))],
                       t=[Fraction(2), Fraction(16)], s=[Fraction(1), Fraction(2)])
    ortho_step(state, gompertz_seq)  # unvalidated, the step goes through
    with pytest.raises(OrthogonalityLost) as excinfo:
        ortho_step(state, gompertz_seq, validate=True)
    assert (excinfo.value.degree, excinfo.value.other) == (2, 0)
    assert excinfo.value.residual != 0


def test_positivity_violation_carries_state():
    seq = custom_sequence("flat", [Fraction(1)] * 6)
    state = ortho_init(seq)
    with pytest.raises(PositivityViolation) as excinfo:
        ortho_step(state, seq)
    exc = excinfo.value
    assert exc.index == 1
    assert exc.value == 0
    assert exc.state is state


def test_engines_agree_small(gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
    for seq in (gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
        for n in range(4):
            assert approximant_ortho(seq, n) == hankel_P(seq, n) / hankel_Q(seq, n)


def test_norm_product_equals_hankel_Q(gompertz_seq):
    for state in ortho_states(gompertz_seq, 6):
        assert norm_product(state) == hankel_Q(gompertz_seq, state.m)


def test_approximant_ortho_known_values(zeta2_seq):
    assert approximant_ortho(zeta2_seq, 0) == Fraction(4, 3)
    assert approximant_ortho(zeta2_seq, 1) == Fraction(135, 89)
    with pytest.raises(ValueError):
        approximant_ortho(zeta2_seq, -1)


def test_partial_sums_nondecreasing(gompertz_seq):
    values = [st.partial_sum for st in ortho_states(gompertz_seq, 10)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_state_defaults():
    st = OrthoState(m=0)
    assert st.polys == [] and st.t == [] and st.s == []
    assert st.partial_sum == 0
    assert st.q_prev == ()
