"""End-to-end acceptance checks for the whole package.

Eleven checks, one test function each, so a verbose pytest run reports one
pass/fail line per check. The first four compare against the frozen
known-good tables in golden_values.py; the rest assert the structural
guarantees the construction promises (engine equivalence, positivity,
monotonicity, orthogonality), calibrate both elimination routes against
an independent cofactor oracle, check the condensation sweep against
per-n elimination, guard that the sweep never falls back to elimination
on a built-in family, and that ``approx``'s default walk computes no
exact determinant at all.

The sweeps are module-scoped: each family's determinant sweep and
recurrence run happen once and every check reads from the shared results.
The full module takes about 22 s on a 2-CPU x86-64 machine with CPython
3.11: about 4 s for the moments and the determinant sweeps, 3 s for the
recurrence runs, 8 s for the per-n elimination that the sweep is checked
against and 4 s for the default walks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest

from hankel_approx import driver, hankel
from hankel_approx._bareiss_py import bareiss_det
from hankel_approx.driver import run_convergence
from hankel_approx.exactnum import parse_decimal, rat_to_decimal
from hankel_approx.hankel import det_rational, hankel_P, hankel_Q, hankel_sweep
from hankel_approx.moments import family_sequence
from hankel_approx.orthopoly import ortho_states

from .golden_values import (
    GAMMA_ROWS,
    GOMPERTZ_ROWS,
    REFERENCE_DECIMALS,
    ZETA2_ROWS,
    ZETA3_ROWS,
)
from .oracles import arrow_det, cofactor_det, harmonic, inner_product, polynomials

# family -> (builtin name, k, sweep range)
FAMILIES = {
    "gamma": ("gamma", None, 25),
    "gompertz": ("gompertz", None, 25),
    "zeta2": ("zeta", 2, 25),
    "zeta3": ("zeta", 3, 25),
    "factorial": ("factorial", None, 50),
}

CONVERGENT = ("gamma", "gompertz", "zeta2", "zeta3")


@pytest.fixture(scope="module")
def sequences():
    return {
        family: family_sequence(name, k)
        for family, (name, k, _) in FAMILIES.items()
    }


@pytest.fixture(scope="module")
def eliminations():
    """family -> matrices the determinant sweep fell back to eliminating."""
    return {}


@pytest.fixture(scope="module")
def det_sweeps(sequences, eliminations):
    """family -> list of (P_n, Q_n) for n = 0 .. range, determinant sweep."""
    sweeps, calls = {}, []
    exact = hankel.det_rational
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hankel, "det_rational", lambda rows: calls.append(1) or exact(rows))
        for family in FAMILIES:
            before = len(calls)
            sweeps[family] = list(hankel_sweep(sequences[family], FAMILIES[family][2]))
            eliminations[family] = len(calls) - before
    return sweeps


@pytest.fixture(scope="module")
def ortho_sweeps(sequences):
    """family -> list of recurrence states for n = 0 .. range."""
    return {
        family: list(ortho_states(sequences[family], FAMILIES[family][2]))
        for family in FAMILIES
    }


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
        for (P, Q), state in zip(det_sweeps[family], ortho_sweeps[family]):
            assert P / Q == state.partial_sum, f"{family} n={state.m}"
            assert Q == prod(state.t), f"{family} n={state.m}"


def test_structural_guarantees(det_sweeps, sequences):
    for family in FAMILIES:
        sweep = det_sweeps[family]
        values = [P / Q for P, Q in sweep]
        assert all(Q > 0 for _, Q in sweep), family
        assert all(a <= b for a, b in zip(values, values[1:])), family
        seq = sequences[family]
        assert values[0] == seq.moment(1) ** 2 / seq.moment(2), family
    for family in CONVERGENT:
        name, k, _ = FAMILIES[family]
        ref = parse_decimal(REFERENCE_DECIMALS[name if k is None else (name, k)])
        values = [P / Q for P, Q in det_sweeps[family]]
        assert all(v < ref for v in values), family


def test_determinant_routes_match_cofactor_oracle():
    rng = random.Random(1272026)
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_det([r[:] for r in rows]) == cofactor_det(rows)

    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            rows[0][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        for i in range(1, n):
            rows[i][0] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            rows[i][i] = Fraction(rng.choice([x for x in range(-9, 10) if x]))
        assert arrow_det(rows) == det_rational(rows)


def test_sweep_matches_per_index_elimination(det_sweeps, sequences):
    for family, (_, _, top) in FAMILIES.items():
        seq = sequences[family]
        for n in range(17 if family == "gamma" else top + 1):
            assert det_sweeps[family][n] == (hankel_P(seq, n), hankel_Q(seq, n)), (
                f"{family} n={n}"
            )


def test_sweep_never_falls_back_on_builtin_families(det_sweeps, eliminations):
    # A fallback would still give the right values, at O(N^4) cost.
    assert eliminations == {family: 0 for family in FAMILIES}


def test_orthogonality_across_families(sequences, ortho_sweeps):
    for family, seq in sequences.items():
        polys = polynomials(ortho_sweeps[family][12])
        assert len(polys) == 13
        for i in range(13):
            for j in range(i):
                assert inner_product(polys[i], polys[j], seq) == 0, (
                    f"{family}: <q_{i}, q_{j}> != 0"
                )


def test_default_walk_makes_no_exact_determinant_call(det_sweeps, monkeypatch):
    # approx's default compares the recurrence with the determinants mod a
    # prime; on a built-in family it never needs an exact determinant.
    sweep_rows, det_calls = [], []
    sweep, det = driver.hankel_sweep, hankel.det_rational
    monkeypatch.setattr(driver, "hankel_sweep", lambda seq, n_max: (
        sweep_rows.append(1) or row for row in sweep(seq, n_max)))
    monkeypatch.setattr(hankel, "det_rational", lambda rows: det_calls.append(1) or det(rows))
    for family, (name, k, top) in FAMILIES.items():
        top = 48 if family == "gompertz" else top
        records = run_convergence(family=name, k=k, n_max=top)
        assert [r.n for r in records] == list(range(top + 1)), family
        assert [(r.P, r.Q) for r in records[:len(det_sweeps[family])]] == det_sweeps[family]
    assert (sweep_rows, det_calls) == ([], [])
