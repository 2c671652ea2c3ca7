from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hankel_approx._bareiss_py import bareiss_det
from hankel_approx.errors import NonPositiveQ
from hankel_approx.hankel import (
    build_P_matrix,
    build_Q_matrix,
    det_rational,
    hankel_P,
    hankel_Q,
)
from hankel_approx.moments import custom_sequence

from .oracles import ArrowShapeViolation, ZeroDiagonal, arrow_det, cofactor_det


def test_build_matrices(gompertz_seq):
    P = build_P_matrix(gompertz_seq, 1)
    assert P[0][0] == 0  # a_0 enters as 0 by construction
    assert P == [[0, 1, 2], [1, 2, 5], [2, 5, 16]]
    Q = build_Q_matrix(gompertz_seq, 1)
    assert Q == [[2, 5], [5, 16]]
    with pytest.raises(ValueError):
        build_P_matrix(gompertz_seq, -1)
    with pytest.raises(ValueError):
        build_Q_matrix(gompertz_seq, -1)


def test_hankel_entries_depend_on_index_sum(gamma_seq):
    M = build_P_matrix(gamma_seq, 2)
    order = len(M)
    for i in range(order):
        for j in range(order):
            assert M[i][j] == M[j][i]
            if i + 1 < order and j >= 1:
                assert M[i][j] == M[i + 1][j - 1]


def test_det_fraction_free_known_values():
    assert bareiss_det([[5]]) == 5
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[2, 0, 1], [1, 3, 2], [1, 1, 4]]) == 18
    assert bareiss_det([[1, 2], [2, 4]]) == 0


def test_det_permutation_matrices():
    # Pure pivoting exercises: determinant is the permutation sign.
    rng = random.Random(555)
    for _ in range(50):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        assert bareiss_det([r[:] for r in rows]) == cofactor_det(rows)


def test_det_random_integer_matrices_match_cofactor():
    rng = random.Random(987123)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det([r[:] for r in rows]) == cofactor_det(rows)


def test_det_rational_matches_cofactor():
    rng = random.Random(435261)
    for _ in range(100):
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_rational(rows) == cofactor_det(rows)


def test_det_rational_zero_row():
    assert det_rational([[Fraction(0), Fraction(0)], [Fraction(1), Fraction(1, 3)]]) == 0


def test_hankel_P_and_Q_small(gompertz_seq):
    # P_0 = -det [[0, a1], [a1, a2]] = a1^2, Q_0 = a2
    assert hankel_P(gompertz_seq, 0) == 1
    assert hankel_Q(gompertz_seq, 0) == 2
    assert hankel_P(gompertz_seq, 1) / hankel_Q(gompertz_seq, 1) == Fraction(4, 7)


def test_hankel_P_matches_cofactor(zeta2_seq):
    for n in range(4):
        assert hankel_P(zeta2_seq, n) == -cofactor_det(build_P_matrix(zeta2_seq, n))


def test_hankel_Q_rejects_nonpositive():
    seq = custom_sequence("flat", [Fraction(1)] * 4)
    assert hankel_Q(seq, 0) == 1
    with pytest.raises(NonPositiveQ) as excinfo:
        hankel_Q(seq, 1)
    assert excinfo.value.n == 1
    assert excinfo.value.value == 0


def test_arrow_det_matches_general_route():
    rows = [
        [Fraction(3), Fraction(1, 2), Fraction(-2), Fraction(5)],
        [Fraction(1), Fraction(4), 0, 0],
        [Fraction(-3), 0, Fraction(2, 3), 0],
        [Fraction(7), 0, 0, Fraction(-5)],
    ]
    assert arrow_det(rows) == det_rational(rows) == cofactor_det(rows)


def test_arrow_det_random_sweep():
    rng = random.Random(192837)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            rows[0][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for i in range(1, n):
            rows[i][0] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][i] = Fraction(rng.choice([x for x in range(-9, 10) if x]), 1)
        assert arrow_det(rows) == det_rational(rows)


def test_arrow_det_shape_checks():
    with pytest.raises(ArrowShapeViolation):
        arrow_det([[1, 2, 3], [4, 5, 6], [7, 0, 9]])
    with pytest.raises(ZeroDiagonal):
        arrow_det([[1, 2], [3, 0]])
    # 1x1 arrows are trivially valid
    assert arrow_det([[7]]) == 7
