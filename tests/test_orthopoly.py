from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from hankel_approx import orthopoly
from hankel_approx.errors import IndexOutOfRange, OrthogonalityLost, PositivityViolation
from hankel_approx.driver import CHECK_PRIME
from hankel_approx.hankel import hankel_residues, hankel_sweep, residue
from hankel_approx.moments import MomentSequence
from hankel_approx.orthopoly import ortho_sweep

from .conftest import measure_ortho_moments
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


def seeded_measure(seed: int, nodes: int = 12, count: int = 18) -> MomentSequence:
    """a_k = sum_i w_i x_i^k of ``nodes`` seeded positive nodes and weights."""
    rng = random.Random(seed)
    measure = [(Fraction(rng.randint(1, 99), rng.randint(1, 20)), Fraction(rng.randint(1, 50), 64))
               for _ in range(nodes)]
    return MomentSequence(f"measure-{seed}",
                          values=[sum(w * x ** k for x, w in measure) for k in range(1, count + 1)])


def test_orthogonality_small(gompertz_seq, zeta2_seq, coefficients):
    # On zeta(2) and the measure, beta_k's numerator shares a factor with
    # the older row's denominator from k = 2 on, which the row update
    # cancels before it forms the next row.
    for seq in (gompertz_seq, zeta2_seq, seeded_measure(7)):
        coefficients.clear()
        t = norms(list(ortho_sweep(seq, 8)))
        polys = polynomials(coefficients)
        assert len(polys) == 9, seq.name
        for i in range(len(polys)):
            for j in range(i):
                assert inner_product(polys[i], polys[j], seq) == 0, seq.name
            assert inner_product(polys[i], polys[i], seq) == t[i], seq.name


@pytest.fixture
def rows(monkeypatch, coefficients):
    """Every row (N_k, d_k) of the recurrence's table, k = 0, 1, ..., read
    where ``_coefficients`` reads it, alongside the recorded coefficients."""
    recording, recorded = orthopoly._coefficients, []

    def reading(row, prev, k):
        recorded.append(row[:2])
        return recording(row, prev, k)

    monkeypatch.setattr(orthopoly, "_coefficients", reading)
    return recorded


@pytest.mark.parametrize("family, n_max", [
    # gcd(C, sum of the row) overshoots the row's gcd on 7 of the 10 rows
    # zeta(2)'s sweep reduces, 6 of zeta(3)'s 10, 2 of gamma's 8 and none
    # of the measure's 6, so the remainders both do and do not reduce
    # further.
    ("zeta2", 10), ("zeta3", 10), ("gamma", 8), ("measure", 6)])
def test_every_row_is_reduced_and_holds_the_mixed_moments(request, workloads, coefficients, rows,
                                                         family, n_max):
    if family == "measure":
        seq = measure_ortho_moments(workloads, 1)
    else:
        seq = request.getfixturevalue(f"{family}_seq")
    assert len(list(ortho_sweep(seq, n_max))) == n_max + 1
    polys = polynomials(coefficients)
    assert len(rows) == n_max
    for k, (N, d) in enumerate(rows):
        assert d > 0 and gcd(d, *N) == 1, (family, k)
        # Row k holds sigma_{k,l} = <q_k, x^l>, l = -1 .. 2 n_max - k, at N[l + 1].
        assert len(N) == 2 * n_max + 2 - k
        # s_k = sigma_{k,-1} = L(x q_k) = sum_j c_j a_{j+1}.
        s_k = sum(c * seq.moment(j + 1) for j, c in enumerate(polys[k]))
        assert Fraction(N[0], d) == s_k, (family, k)
        assert N[1:k + 1] == [0] * k, (family, k)
        for l in range(k, len(N) - 1):
            monomial = (0,) * l + (1,)
            assert Fraction(N[l + 1], d) == inner_product(polys[k], monomial, seq), (family, k, l)


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


@pytest.mark.parametrize("family", ["gompertz", "zeta2"])
@pytest.mark.parametrize("length", range(8))
def test_both_routes_stop_alike_on_every_short_sequence(request, family, length):
    # a_1 .. a_L support the pairs n < L // 2; the first moment missing is a_{L+1}.
    full = request.getfixturevalue(f"{family}_seq")
    seq = MomentSequence(f"{family}-{length}", values=[full.moment(i) for i in range(1, length + 1)])

    # The residues mod a prime are a third route and stop the same way,
    # each row the residues of the exact pair.
    def residues(seq, n_max):
        return hankel_residues(seq, n_max, CHECK_PRIME)

    yielded = []
    for sweep in (ortho_sweep, hankel_sweep, residues):
        pairs = []
        with pytest.raises(IndexOutOfRange) as excinfo:
            for pair in sweep(seq, 3):
                pairs.append(pair)
        assert (excinfo.value.requested, excinfo.value.available) == (length + 1, length), sweep
        yielded.append(pairs)
    assert len(yielded[0]) == length // 2
    assert yielded[0] == yielded[1]
    assert yielded[2] == [tuple(residue(x, CHECK_PRIME) for x in pair) for pair in yielded[0]]


def test_product_of_squared_norms_equals_hankel_Q(gompertz_seq):
    for (_, norm), (_, Q) in zip(ortho_sweep(gompertz_seq, 6), hankel_sweep(gompertz_seq, 6),
                                 strict=True):
        assert norm == Q


def test_ortho_sweep_known_values(zeta2_seq):
    # A_0 and A_1 read off the recurrence's pairs.
    assert [P / Q for P, Q in ortho_sweep(zeta2_seq, 1)] == [Fraction(4, 3), Fraction(135, 89)]


def test_partial_sums_nondecreasing(gompertz_seq):
    values = [P / Q for P, Q in ortho_sweep(gompertz_seq, 10)]
    assert all(a <= b for a, b in zip(values, values[1:]))
