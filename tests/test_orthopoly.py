from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hankel_approx.errors import OrthogonalityLost, PositivityViolation
from hankel_approx.hankel import hankel_sweep
from hankel_approx.moments import MomentSequence
from hankel_approx.orthopoly import ortho_sweep

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


def norms(pairs) -> list:
    """t_0 .. t_n read off the pairs: N_n = t_0 ... t_n, so t_n = N_n/N_{n-1}."""
    Q = [Q for _, Q in pairs]
    return [q / prev for q, prev in zip(Q, [1] + Q)]


def test_ortho_sweep_first_pair_is_a1_squared_over_a2(gompertz_seq, coefficients):
    m, (P, Q) = next(enumerate(ortho_sweep(gompertz_seq, 0)))
    assert m == 0
    assert norms([(P, Q)]) == [2]  # a_2
    assert coefficients == []
    assert P / Q == Fraction(1, 2)  # a_1^2 / a_2


def test_ortho_sweep_rejects_nonpositive_a2():
    seq = MomentSequence("bad", values=[Fraction(1), Fraction(-1)])
    with pytest.raises(PositivityViolation) as excinfo:
        next(ortho_sweep(seq, 3))
    assert excinfo.value.index == 0
    assert excinfo.value.value == -1


def test_ortho_sweep_second_pair_and_first_coefficients(gompertz_seq, coefficients):
    pairs = list(ortho_sweep(gompertz_seq, 1))
    assert pairs[0] == (1, 2)  # the first pair stays as yielded
    assert len(pairs) == 2 and norms(pairs) == [2, Fraction(7, 2)]
    assert coefficients == [(Fraction(5, 2), 2)]  # alpha_0 = a_3/a_2, beta_0 = t_0
    assert polynomials(coefficients)[1] == (Fraction(-5, 2), 1)  # monic, degree 1
    assert pairs[1][0] / pairs[1][1] == Fraction(4, 7)


def test_ortho_sweep_yields_every_index(zeta3_seq, coefficients):
    pairs = list(ortho_sweep(zeta3_seq, 6))
    assert [m for m, _ in enumerate(pairs)] == list(range(7))
    assert len(coefficients) == 6
    for m in range(7):
        assert len(norms(pairs[:m + 1])) == m + 1
        polys = polynomials(coefficients[:m])
        assert [len(q) for q in polys] == list(range(1, m + 2))
        assert all(q[-1] == 1 for q in polys)


def test_orthogonality_small(gompertz_seq, coefficients):
    t = norms(list(ortho_sweep(gompertz_seq, 8)))
    polys = polynomials(coefficients)
    for i in range(len(polys)):
        for j in range(i):
            assert inner_product(polys[i], polys[j], gompertz_seq) == 0
        assert inner_product(polys[i], polys[i], gompertz_seq) == t[i]


def test_ortho_sweep_stops_at_lost_orthogonality(gompertz_seq, skewed_alpha_1):
    pairs = []
    with pytest.raises(OrthogonalityLost) as excinfo:
        for pair in ortho_sweep(gompertz_seq, 4):
            pairs.append(pair)
    assert [m for m, _ in enumerate(pairs)] == [0, 1]
    # The skewed q_2 is still orthogonal to q_0; the scan reports q_1.
    assert (excinfo.value.degree, excinfo.value.other) == (2, 1)
    assert excinfo.value.residual == -norms(pairs)[1]


@pytest.mark.parametrize("coefficient, bad_k, stop", [
    ("beta", 3, (4, 2)),  # <q_4, q_2> = -t_2; q_4 stays orthogonal to q_3
    ("alpha", 4, (5, 4)),  # <q_5, q_4> = -t_4
])
def test_ortho_sweep_stops_at_a_skewed_coefficient(gompertz_seq, skew_alpha, skew_beta,
                                                   coefficient, bad_k, stop):
    {"alpha": skew_alpha, "beta": skew_beta}[coefficient](bad_k)
    pairs = []
    with pytest.raises(OrthogonalityLost) as excinfo:
        for pair in ortho_sweep(gompertz_seq, 6):
            pairs.append(pair)
    assert len(pairs) == stop[0]
    assert (excinfo.value.degree, excinfo.value.other) == stop
    assert excinfo.value.residual == -norms(pairs)[stop[1]]


def test_positivity_violation_stops_after_yielded_states():
    seq = MomentSequence("flat", values=[Fraction(1)] * 6)
    pairs = []
    with pytest.raises(PositivityViolation) as excinfo:
        for pair in ortho_sweep(seq, 3):
            pairs.append(pair)
    exc = excinfo.value
    assert exc.index == 1
    assert exc.value == 0
    assert [(m, P / Q) for m, (P, Q) in enumerate(pairs)] == [(0, 1)]


def test_engines_agree_small(gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
    for seq in (gamma_seq, gompertz_seq, zeta2_seq, factorial_seq):
        pairs = list(ortho_sweep(seq, 3))
        assert len(pairs) == 4
        assert pairs == list(hankel_sweep(seq, 3))


def test_norm_product_equals_hankel_Q(gompertz_seq):
    for (_, norm), (_, Q) in zip(ortho_sweep(gompertz_seq, 6), hankel_sweep(gompertz_seq, 6),
                                 strict=True):
        assert norm == Q


def test_approximant_ortho_known_values(zeta2_seq):
    # A_0 and A_1 read off the recurrence's pairs.
    assert [P / Q for P, Q in ortho_sweep(zeta2_seq, 1)] == [Fraction(4, 3), Fraction(135, 89)]


def test_partial_sums_nondecreasing(gompertz_seq):
    values = [P / Q for P, Q in ortho_sweep(gompertz_seq, 10)]
    assert all(a <= b for a, b in zip(values, values[1:]))
