from __future__ import annotations

from fractions import Fraction
from operator import truediv

import pytest

from hankel_approx import hankel
from hankel_approx.driver import render, walk
from hankel_approx.errors import NonPositiveQ
from hankel_approx.hankel import hankel_P, hankel_Q, hankel_sweep
from hankel_approx.moments import (
    MomentSequence,
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    load_moments,
    zeta_sequence,
)

from .conftest import det_records, moment, moment_list, ortho_records, record_eliminations, run_cli
from .oracles import cofactor_det, hankel_matrix


def test_oracle_matrices_and_negative_n_rejected(gompertz_seq):
    # a_0 enters as 0 by construction.
    P, Q = [[0, 1, 2], [1, 2, 5], [2, 5, 16]], [[2, 5], [5, 16]]
    assert hankel_matrix(gompertz_seq, 0, 3) == P
    assert hankel_matrix(gompertz_seq, 2, 2) == Q
    with pytest.raises(ValueError):
        hankel_P(gompertz_seq, -1)
    with pytest.raises(ValueError):
        hankel_Q(gompertz_seq, -1)


def test_hankel_entries_depend_on_index_sum(gamma_seq):
    M = hankel_matrix(gamma_seq, 0, 4)
    order = len(M)
    for i in range(order):
        for j in range(order):
            assert M[i][j] == M[j][i]
            if i + 1 < order and j >= 1:
                assert M[i][j] == M[i + 1][j - 1]


def test_bordered_elimination_known_values():
    # (a_1, a_2, ...) -> the pairs (P_n, Q_n) the bordered elimination
    # yields; it stops after a pivot Q_n = 0.
    cases = [
        ((5, 7), [(25, 7)]),  # P_0 = a_1^2, Q_0 = a_2
        ((1, 0), [(1, 0)]),  # P_0's matrix [[0, 1], [1, 0]]
        ((0, 0), [(0, 0)]),
        ((1, 2, 5, 16), [(1, 2), (4, 7)]),
        ((3, 1, 2, 4, 8, 9), [(9, 1), (25, 0)]),  # Q_1 = det [[1, 2], [2, 4]]
    ]
    for a, pairs in cases:
        seq = MomentSequence("known", values=[Fraction(v) for v in a])
        n_max = len(a) // 2 - 1
        assert list(hankel._eliminate(moment_list(seq, n_max), truediv)) == pairs, a
        assert pairs == [(-cofactor_det(hankel_matrix(seq, 0, n + 2)),
                          cofactor_det(hankel_matrix(seq, 2, n + 1))) for n in range(len(pairs))]


def test_hankel_P_and_Q_small(gompertz_seq):
    # P_0 = -det [[0, a1], [a1, a2]] = a1^2, Q_0 = a2
    assert hankel_P(gompertz_seq, 0) == 1
    assert hankel_Q(gompertz_seq, 0) == 2
    assert hankel_P(gompertz_seq, 1) / hankel_Q(gompertz_seq, 1) == Fraction(4, 7)


def test_hankel_P_matches_cofactor(zeta2_seq):
    for n in range(4):
        assert hankel_P(zeta2_seq, n) == -cofactor_det(hankel_matrix(zeta2_seq, 0, n + 2))


def test_hankel_Q_rejects_nonpositive():
    # Q_0 = 1 and Q_1 = Q_2 = 0: hankel_P and hankel_Q raise at the first
    # such m, so at m = 1 for n = 2 too.
    seq = MomentSequence("flat", values=[Fraction(1)] * 6)
    assert hankel_Q(seq, 0) == 1
    assert cofactor_det(hankel_matrix(seq, 2, 3)) == 0
    for determinant in (hankel_P, hankel_Q):
        for n in (1, 2):
            with pytest.raises(NonPositiveQ) as excinfo:
                determinant(seq, n)
            assert (excinfo.value.index, excinfo.value.value) == (1, 0)
            assert type(excinfo.value.value) is Fraction


# Weights 1, 2, 3 at the nodes +-1, +-2, +-3: the odd moments vanish, so
# the condensation divisor H^(3)_1 = a_3 is zero at step n = 2.
SYMMETRIC = [
    Fraction(sum(w * (x**j + (-x) ** j) for x, w in ((1, 1), (2, 2), (3, 3))))
    for j in range(1, 13)
]


def test_sweep_falls_back_to_elimination_at_zero_divisor(monkeypatch):
    seq = MomentSequence("symmetric", values=SYMMETRIC)
    assert moment(seq, 3) == 0
    with monkeypatch.context() as mp:
        calls = record_eliminations(mp)
        rows, eliminations = [], []
        for row in hankel_sweep(seq, 5):
            rows.append(row)
            eliminations.append(len(calls))
    # Rows 0 and 1 come off the table; one exact elimination gives rows 2 .. 5.
    assert eliminations == [0, 0, 1, 1, 1, 1]
    assert calls == [True]
    assert rows == [(-cofactor_det(hankel_matrix(seq, 0, n + 2)),
                     cofactor_det(hankel_matrix(seq, 2, n + 1))) for n in range(6)]


def test_zero_divisor_file_gives_the_same_values_on_both_routes(write_moments_file):
    # The CLI, which --method det leaves unchanged, and each route read directly.
    path = write_moments_file("symmetric", [str(a) for a in SYMMETRIC])
    res = run_cli([
        "approx", "--family", "custom", "--moments-file", str(path),
        "--n-max", "5", "--method", "det", "--format", "csv"])
    assert res.exit_code == 0
    outputs = [res.stdout, *("".join(render(route(load_moments(path), 5), "csv"))
                             for route in (det_records, ortho_records))]
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].splitlines()) == 7


def test_residues_invert_once_per_anti_diagonal(monkeypatch):
    # Each anti-diagonal's divisors are inverted together (Montgomery's
    # simultaneous inversion): rows 1 .. 35 of factorial take at most the 70
    # inverses of anti-diagonals 3 .. 72, where one per entry would be 1,295.
    p = 2**61 - 1
    rows = hankel.hankel_residues(factorial_sequence(), 35, p)
    assert next(rows) == (1, 1)  # row 0 reduces the moments first
    inverses = []

    def counted(*args):
        if args[1:] == (-1, p):
            inverses.append(args[0])
        return pow(*args)

    monkeypatch.setattr(hankel, "pow", counted, raising=False)
    assert len(list(rows)) == 35
    assert 0 < len(inverses) <= 70


def test_residues_stop_at_a_moment_the_prime_cannot_reduce(monkeypatch):
    # The check prime p divides the denominator of a_5 + 1/p, so the
    # residues end before row 2, which needs a_5, and start no elimination
    # to find that out; the walk compares rows 2 .. 5 exactly instead.
    p = 2**61 - 1
    gompertz = gompertz_sequence()
    a = [moment(gompertz, j) for j in range(1, 13)]
    a[4] += Fraction(1, p)
    seq = MomentSequence("bumped", values=a)
    calls = record_eliminations(monkeypatch)
    assert len(list(hankel.hankel_residues(seq, 5, p))) == 2
    assert calls == []
    rows = [r[:4] for r in walk(seq, 5)]
    assert rows == [r[:4] for r in ortho_records(seq, 5)]
    assert len(rows) == 6
    # Cut after a_5 the sequence is short as well, but the prime ends the
    # residues first: the same two rows, and no IndexOutOfRange.
    assert len(list(hankel.hankel_residues(MomentSequence("cut", values=a[:5]), 5, p))) == 2


def test_elimination_stops_at_a_moment_the_prime_cannot_reduce(monkeypatch):
    # SYMMETRIC's zero divisor a_3 hands rows 2 .. 5 to the elimination mod
    # the check prime p; p divides the denominator of a_8 + 1/p, so that
    # elimination ends before row 3, which needs a_8, and the walk compares
    # rows 3 .. 5 exactly instead.
    p = 2**61 - 1
    a = list(SYMMETRIC)
    a[7] += Fraction(1, p)
    seq = MomentSequence("bumped", values=a)
    calls = record_eliminations(monkeypatch)
    assert len(list(hankel.hankel_residues(seq, 5, p))) == 3
    assert calls == [False]
    rows = [r[:4] for r in walk(seq, 5)]
    assert rows == [r[:4] for r in det_records(seq, 5)]
    assert len(rows) == 6


@pytest.mark.parametrize("build", [factorial_sequence, gompertz_sequence, None],
                         ids=["factorial", "gompertz", "custom"])
def test_exact_route_returns_fractions_on_integer_moments(build, write_moments_file):
    # Integral entries stay ints inside the exact route, but every P, Q
    # and value it returns is a Fraction: int / int would be a float.
    if build is None:  # integer moments with zero divisors: rows 2 .. 5 by elimination
        seq = load_moments(write_moments_file("integers", [str(a) for a in SYMMETRIC]))
    else:
        seq = build()
    values = [x for pair in hankel_sweep(seq, 5) for x in pair]
    values += [hankel_P(seq, 5), hankel_Q(seq, 5)]
    values += [x for r in det_records(seq, 5) for x in (r.P, r.Q, r.value)]
    assert len(values) == 12 + 2 + 18
    assert {type(x) for x in values} == {Fraction}


@pytest.mark.parametrize("build, top", [
    (gamma_sequence, 6), (gompertz_sequence, 6), (lambda: zeta_sequence(2), 6),
    (lambda: zeta_sequence(3), 6), (factorial_sequence, 6),
    (lambda: MomentSequence("symmetric", values=SYMMETRIC), 5),
], ids=["gamma-None-6", "gompertz-None-6", "zeta-2-6", "zeta-3-6", "factorial-None-6",
        "symmetric-None-5"])
def test_monotonicity_identity(build, top):
    # P_n Q_{n-1} - P_{n-1} Q_n = (H^(1)_{n+1})^2, so A_n - A_{n-1} >= 0
    # whenever the Q's are positive: the paper's monotonicity. SYMMETRIC's
    # twelve moments reach n = 5.
    seq = build()
    swept = list(hankel_sweep(seq, top))
    eliminated = list(hankel._eliminate(moment_list(seq, top), truediv))
    for pairs in (swept, eliminated):
        for n in range(1, top + 1):
            (P0, Q0), (P1, Q1) = pairs[n - 1], pairs[n]
            assert P1 * Q0 - P0 * Q1 == cofactor_det(hankel_matrix(seq, 1, n + 1)) ** 2, n
