"""End-to-end acceptance checks for the whole package.

Eleven checks, one test function each, so a verbose pytest run reports one
pass/fail line per check. The first four compare against the frozen
known-good tables in golden_values.py; the rest assert the structural
guarantees the construction promises (engine equivalence, positivity,
monotonicity, orthogonality), check both determinant algorithms, the
condensation sweep and the bordered elimination it falls back to past a
zero divisor, against cofactor expansion of Hankel matrices built by the
test oracles, check the sweep against one elimination run over every
family's range, guard that the sweep never falls back to elimination on a
built-in family, and that ``approx``'s default walk computes no exact
determinant at all.

The sweeps are module-scoped: each family's determinant sweep and
recurrence run happen once and every check reads from the shared results.
The full module takes about 10 s on a 2-CPU x86-64 machine with CPython
3.11: about 3 s for the moments and the determinant sweeps, 2.3 s for the
recurrence runs, 0.7 s for the eliminations that the sweep is checked
against and 2.4 s for the default walks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv

import pytest

from hankel_approx import driver, hankel
from hankel_approx.driver import walk
from hankel_approx.exactnum import parse_decimal, rat_to_decimal
from hankel_approx.hankel import hankel_sweep
from hankel_approx.moments import (
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    zeta_sequence,
)
from hankel_approx.orthopoly import ortho_sweep

from .conftest import exact_table, moment_list, record_coefficients, record_eliminations
from .golden_values import (
    GAMMA_ROWS,
    GOMPERTZ_ROWS,
    REFERENCE_DECIMALS,
    ZETA2_ROWS,
    ZETA3_ROWS,
)
from .oracles import cofactor_det, hankel_matrix, harmonic, inner_product, polynomials

# family -> (sequence builder, key of its reference decimal, sweep range)
FAMILIES = {
    "gamma": (gamma_sequence, "gamma", 25),
    "gompertz": (gompertz_sequence, "gompertz", 25),
    "zeta2": (lambda: zeta_sequence(2), ("zeta", 2), 25),
    "zeta3": (lambda: zeta_sequence(3), ("zeta", 3), 25),
    "factorial": (factorial_sequence, None, 50),
}

CONVERGENT = ("gamma", "gompertz", "zeta2", "zeta3")


@pytest.fixture(scope="module")
def sequences():
    return {family: build() for family, (build, _, _) in FAMILIES.items()}


@pytest.fixture(scope="module")
def eliminations():
    """family -> elimination runs the determinant sweep fell back to."""
    return {}


@pytest.fixture(scope="module")
def det_sweeps(sequences, eliminations):
    """family -> list of (P_n, Q_n) for n = 0 .. range, determinant sweep."""
    sweeps = {}
    with pytest.MonkeyPatch.context() as mp:
        calls = record_eliminations(mp)
        for family in FAMILIES:
            before = len(calls)
            sweeps[family] = list(hankel_sweep(sequences[family], FAMILIES[family][2]))
            eliminations[family] = len(calls) - before
    return sweeps


@pytest.fixture(scope="module")
def ortho_sweeps(sequences):
    """family -> (list of (A_n N_n, N_n) for n = 0 .. range, the recurrence's
    (alpha_k, beta_k) for k < range)."""
    sweeps = {}
    with pytest.MonkeyPatch.context() as mp:
        coefficients = record_coefficients(mp)
        for family in FAMILIES:
            coefficients.clear()
            pairs = list(ortho_sweep(sequences[family], FAMILIES[family][2]))
            sweeps[family] = pairs, list(coefficients)
    return sweeps


def assert_decimal_close(value: Fraction, printed: str, digits: int):
    # Within one unit in the last printed digit.
    scale = 10 ** digits
    got = parse_decimal(rat_to_decimal(value, digits)) * scale
    want = parse_decimal(printed) * scale
    assert got.denominator == 1 and want.denominator == 1
    assert abs(got - want) <= 1, f"{value} renders as {got / scale}, printed {printed}"


def test_gompertz_convergents_exact(det_sweeps):
    sweep = det_sweeps["gompertz"]
    checked = 0
    for n, (frac, decimal) in GOMPERTZ_ROWS.items():
        P, Q = sweep[n]
        if frac is not None:
            assert P / Q == Fraction(frac), f"n={n}"
            checked += 1
        assert_decimal_close(P / Q, decimal, 10)
    assert checked == 19  # n = 0..15, 17, 19, 21


def test_gamma_convergents_and_decimals(det_sweeps):
    sweep = det_sweeps["gamma"]
    assert sweep[0][0] / sweep[0][1] == Fraction(9, 41)
    assert sweep[1][0] / sweep[1][1] == Fraction(627726506, 2084484569)
    for n, (_, decimal) in GAMMA_ROWS.items():
        P, Q = sweep[n]
        assert_decimal_close(P / Q, decimal, 10)


def test_zeta_convergents_and_decimals(det_sweeps):
    for family, rows in (("zeta2", ZETA2_ROWS), ("zeta3", ZETA3_ROWS)):
        sweep = det_sweeps[family]
        for n, (frac, decimal) in rows.items():
            P, Q = sweep[n]
            if frac is not None:
                assert P / Q == Fraction(frac), f"{family} n={n}"
            assert_decimal_close(P / Q, decimal, 9)
    assert ZETA2_ROWS[5][0] is not None  # exact coverage reaches n = 5
    assert ZETA3_ROWS[3][0] is not None  # and n = 3


def test_factorial_family_follows_harmonic(det_sweeps):
    # The one family here whose approximants diverge: they walk the
    # harmonic numbers while every positivity hypothesis still holds.
    sweep = det_sweeps["factorial"]
    assert len(sweep) == 51
    for n, (P, Q) in enumerate(sweep):
        assert P > 0
        assert Q > 0
        assert P / Q == harmonic(n + 1), f"n={n}"


def test_engines_agree_and_norms_factor(det_sweeps, ortho_sweeps):
    for family in FAMILIES:
        pairs, _ = ortho_sweeps[family]
        for n, ((P, Q), (AN, N)) in enumerate(zip(det_sweeps[family], pairs)):
            assert P / Q == AN / N, f"{family} n={n}"
            assert Q == N, f"{family} n={n}"


def test_structural_guarantees(det_sweeps, sequences):
    for family in FAMILIES:
        sweep = det_sweeps[family]
        values = [P / Q for P, Q in sweep]
        assert all(Q > 0 for _, Q in sweep), family
        assert all(a <= b for a, b in zip(values, values[1:])), family
        seq = sequences[family]
        assert values[0] == seq.moment(1) ** 2 / seq.moment(2), family
    for family in CONVERGENT:
        ref = parse_decimal(REFERENCE_DECIMALS[FAMILIES[family][1]])
        values = [P / Q for P, Q in det_sweeps[family]]
        assert all(v < ref for v in values), family


def test_determinant_routes_match_cofactor_oracle(det_sweeps, sequences):
    # The elimination in the exact route's arithmetic: ints and // on
    # integer moments, Fractions and / otherwise.
    for family, seq in sequences.items():
        eliminated = list(hankel._eliminate(*exact_table(seq, 4)))
        for n in range(5):
            oracle = (-cofactor_det(hankel_matrix(seq, 0, n + 2)),
                      cofactor_det(hankel_matrix(seq, 2, n + 1)))
            assert det_sweeps[family][n] == oracle, f"{family} n={n}"
            assert eliminated[n] == oracle, f"{family} n={n}"


def test_sweep_matches_per_index_elimination(det_sweeps, sequences):
    # One bordered elimination per family gives every P_n, Q_n up to its top.
    for family, (_, _, top) in FAMILIES.items():
        top = 16 if family == "gamma" else top
        pairs = list(hankel._eliminate(moment_list(sequences[family], top), truediv))
        assert pairs == det_sweeps[family][:top + 1], family


def test_sweep_never_falls_back_on_builtin_families(det_sweeps, eliminations):
    # A fallback would still give the right values, at O(N^3) cost.
    assert eliminations == {family: 0 for family in FAMILIES}


def test_orthogonality_across_families(sequences, ortho_sweeps):
    for family, seq in sequences.items():
        polys = polynomials(ortho_sweeps[family][1][:12])
        assert len(polys) == 13
        for i in range(13):
            for j in range(i):
                assert inner_product(polys[i], polys[j], seq) == 0, (
                    f"{family}: <q_{i}, q_{j}> != 0"
                )


def test_default_walk_makes_no_exact_determinant_call(det_sweeps, sequences, monkeypatch):
    # approx's default compares the recurrence with the determinants mod a
    # prime; on a built-in family it never needs an exact determinant.
    sweep_rows, sweep = [], driver.hankel_sweep
    monkeypatch.setattr(driver, "hankel_sweep", lambda seq, n_max: (
        sweep_rows.append(1) or row for row in sweep(seq, n_max)))
    det_calls = record_eliminations(monkeypatch)
    for family, (_, _, top) in FAMILIES.items():
        top = 48 if family == "gompertz" else top
        records = list(walk(sequences[family], top))
        assert [r.n for r in records] == list(range(top + 1)), family
        assert [(r.P, r.Q) for r in records[:len(det_sweeps[family])]] == det_sweeps[family]
    assert (sweep_rows, det_calls) == ([], [])


def test_integer_moments_keep_the_exact_sweep_on_ints(sequences, monkeypatch):
    # Integer moments give integer determinants and exact integer
    # quotients: every divide of the exact sweep takes two ints and
    # returns an int, so no Fraction division creeps back in.
    condense, operands = hankel._condense, []

    def recording(a, divide):
        def recorded(x, d):
            q = divide(x, d)
            operands.append((type(x), type(d), type(q)))
            return q

        return condense(a, recorded)

    monkeypatch.setattr(hankel, "_condense", recording)
    for family, top in (("factorial", 35), ("gompertz", 48)):
        operands.clear()
        assert len(list(hankel_sweep(sequences[family], top))) == top + 1
        assert len(operands) > top and set(operands) == {(int, int, int)}, family
