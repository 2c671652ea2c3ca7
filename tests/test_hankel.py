from __future__ import annotations

import random
from fractions import Fraction

import pytest
from click.testing import CliRunner

from hankel_approx import hankel
from hankel_approx.cli import main
from hankel_approx.errors import NonPositiveQ
from hankel_approx.hankel import det_rational, hankel_P, hankel_Q, hankel_sweep
from hankel_approx.moments import MomentSequence

from .oracles import (
    ArrowShapeViolation,
    ZeroDiagonal,
    arrow_det,
    cofactor_det,
    hankel_matrix,
)


def test_build_matrices(gompertz_seq):
    # a_0 enters as 0 by construction.
    P, Q = [[0, 1, 2], [1, 2, 5], [2, 5, 16]], [[2, 5], [5, 16]]
    assert hankel._hankel_matrix(gompertz_seq, 1, 0) == hankel_matrix(gompertz_seq, 0, 3) == P
    assert hankel._hankel_matrix(gompertz_seq, 1, 2) == hankel_matrix(gompertz_seq, 2, 2) == Q
    with pytest.raises(ValueError):
        hankel_P(gompertz_seq, -1)
    with pytest.raises(ValueError):
        hankel_Q(gompertz_seq, -1)


def test_hankel_entries_depend_on_index_sum(gamma_seq):
    M = hankel._hankel_matrix(gamma_seq, 2, 0)
    order = len(M)
    for i in range(order):
        for j in range(order):
            assert M[i][j] == M[j][i]
            if i + 1 < order and j >= 1:
                assert M[i][j] == M[i + 1][j - 1]


# The elimination's tests: every case goes through det_rational and is
# checked against cofactor expansion or the arrow-matrix closed form.

def test_det_fraction_free_known_values():
    cases = [
        ([], 1),
        ([[5]], 5),
        ([[7]], 7),
        ([[1, 2], [3, 4]], -2),
        ([[0, 1], [1, 0]], -1),
        ([[1, 2], [2, 4]], 0),
        ([[0, 0], [0, 0]], 0),
        ([[2, 0, 1], [1, 3, 2], [1, 1, 4]], 18),
        # Every leading entry zero forces a pivot search at each step.
        ([[0, 0, 1], [0, 2, 3], [4, 5, 6]], -8),
    ]
    for rows, det in cases:
        before = [row[:] for row in rows]
        assert det_rational(rows) == cofactor_det(rows) == det, rows
        assert rows == before  # the input is left as it was


def test_det_permutation_matrices():
    # Pure pivoting exercises: determinant is the permutation sign.
    rng = random.Random(555)
    for _ in range(50):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        assert det_rational(rows) == cofactor_det(rows)


def test_det_random_integer_matrices_match_cofactor():
    rng = random.Random(1272026)
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_rational(rows) == cofactor_det(rows)


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
        assert hankel_P(zeta2_seq, n) == -cofactor_det(hankel_matrix(zeta2_seq, 0, n + 2))


def test_hankel_Q_rejects_nonpositive():
    seq = MomentSequence("flat", values=[Fraction(1)] * 4)
    assert hankel_Q(seq, 0) == 1
    with pytest.raises(NonPositiveQ) as excinfo:
        hankel_Q(seq, 1)
    assert excinfo.value.n == 1
    assert excinfo.value.value == 0


# Weights 1, 2, 3 at the nodes +-1, +-2, +-3: the odd moments vanish, so
# the condensation divisor H^(3)_1 = a_3 is zero at step n = 2.
SYMMETRIC = [
    Fraction(sum(w * (x**j + (-x) ** j) for x, w in ((1, 1), (2, 2), (3, 3))))
    for j in range(1, 13)
]


def test_sweep_falls_back_to_elimination_at_zero_divisor(monkeypatch):
    seq = MomentSequence("symmetric", values=SYMMETRIC)
    assert seq.moment(3) == 0
    calls = []
    exact = hankel.det_rational
    monkeypatch.setattr(hankel, "det_rational", lambda rows: calls.append(len(rows)) or exact(rows))
    rows, eliminations = [], []
    for row in hankel_sweep(seq, 5):
        rows.append(row)
        eliminations.append(len(calls))
    # Rows 0 and 1 come off the table; rows 2 .. 5 each take one P and one Q matrix.
    assert eliminations == [0, 0, 2, 4, 6, 8]
    assert calls == [4, 3, 5, 4, 6, 5, 7, 6]
    assert rows == [(hankel_P(seq, n), hankel_Q(seq, n)) for n in range(6)]


def test_zero_divisor_file_gives_the_same_values_on_both_routes(write_moments_file):
    path = write_moments_file("symmetric", [str(a) for a in SYMMETRIC])
    outputs = []
    for method in ("det", "ortho"):
        res = CliRunner().invoke(main, [
            "approx", "--family", "custom", "--moments-file", str(path),
            "--n-max", "5", "--method", method, "--format", "csv"])
        assert res.exit_code == 0
        outputs.append(res.output)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 7


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
    for _ in range(200):
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
