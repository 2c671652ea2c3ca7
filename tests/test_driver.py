from __future__ import annotations

import json
from fractions import Fraction

import pytest

import hankel_approx.driver as driver
from hankel_approx.driver import (
    ELIDE_THRESHOLD,
    ApproximantRecord,
    RunConfig,
    cross_validate,
    emit,
    resolve_method,
    run_convergence,
)
from hankel_approx.errors import (
    EngineMismatch,
    IndexOutOfRange,
    NonPositiveQ,
    OrthogonalityLost,
    PositivityViolation,
)
from hankel_approx.exactnum import rat_to_decimal
from hankel_approx.moments import ReferenceConstant

from .golden_values import GOMPERTZ_ROWS
from .oracles import records_from_json


def test_runconfig_validation():
    RunConfig(family="gamma", n_max=0)  # minimal valid config
    with pytest.raises(ValueError):
        RunConfig(family="gamma", n_max=-1)
    with pytest.raises(ValueError):
        RunConfig(family="zeta", n_max=3)
    with pytest.raises(ValueError):
        RunConfig(family="zeta", n_max=3, k=1)
    with pytest.raises(ValueError):
        RunConfig(family="custom", n_max=3)
    with pytest.raises(ValueError):
        RunConfig(family="gamma", n_max=3, method="magic")


def test_resolve_method(write_moments_file):
    assert resolve_method(RunConfig(family="gompertz", n_max=2)) == "both"
    assert resolve_method(RunConfig(family="gompertz", n_max=2, method="det")) == "det"
    path = write_moments_file("mine", ["1", "2", "5", "16"])
    custom = RunConfig(family="custom", n_max=1, moments_file=str(path))
    assert resolve_method(custom) == "ortho"


def test_run_convergence_matches_known_rows():
    records = run_convergence(RunConfig(family="gompertz", n_max=5))
    assert [r.n for r in records] == list(range(6))
    for r in records:
        frac, decimal = GOMPERTZ_ROWS[r.n]
        assert r.value == Fraction(frac)
        assert r.P / r.Q == r.value
        assert rat_to_decimal(r.value).text == decimal
        assert r.method == "both"
        assert r.gap is not None and r.gap > 0


def test_run_convergence_gaps_shrink():
    records = run_convergence(RunConfig(family="zeta", k=2, n_max=6))
    gaps = [r.gap for r in records]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_run_convergence_methods_agree():
    det = run_convergence(RunConfig(family="zeta", k=3, n_max=5, method="det"))
    ortho = run_convergence(RunConfig(family="zeta", k=3, n_max=5, method="ortho"))
    assert [r.value for r in det] == [r.value for r in ortho]
    assert [(r.P, r.Q) for r in det] == [(r.P, r.Q) for r in ortho]


def test_run_convergence_factorial_has_no_gap():
    records = run_convergence(RunConfig(family="factorial", n_max=4))
    assert all(r.gap is None for r in records)


def test_run_convergence_positivity_violation_carries_records(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    config = RunConfig(family="custom", n_max=3, moments_file=str(path))
    with pytest.raises(PositivityViolation) as excinfo:
        run_convergence(config)
    partial = excinfo.value.records
    assert [r.n for r in partial] == [0]
    assert partial[0].value == 1


def test_run_convergence_nonpositive_Q_carries_records(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    config = RunConfig(family="custom", n_max=3, method="det", moments_file=str(path))
    with pytest.raises(NonPositiveQ) as excinfo:
        run_convergence(config)
    assert excinfo.value.n == 1
    assert [r.n for r in excinfo.value.records] == [0]


@pytest.mark.parametrize("method", ["ortho", "det"])
def test_run_convergence_short_file_carries_records(write_moments_file, method):
    path = write_moments_file("short", ["1", "2", "5", "16"])
    config = RunConfig(family="custom", n_max=3, method=method, moments_file=str(path))
    with pytest.raises(IndexOutOfRange) as excinfo:
        run_convergence(config)
    assert (excinfo.value.requested, excinfo.value.available) == (5, 4)
    assert [r.value for r in excinfo.value.records] == [Fraction(1, 2), Fraction(4, 7)]


def test_run_convergence_detects_engine_mismatch(monkeypatch):
    exact = driver.hankel_sweep

    def first_P_zeroed(seq, n_max):
        for n, (P, Q) in enumerate(exact(seq, n_max)):
            yield (Fraction(0) if n == 0 else P), Q

    monkeypatch.setattr(driver, "hankel_sweep", first_P_zeroed)
    with pytest.raises(EngineMismatch) as excinfo:
        run_convergence(RunConfig(family="gompertz", n_max=2))
    assert excinfo.value.n == 0
    assert excinfo.value.records == []


def test_run_convergence_lost_orthogonality_carries_records(skewed_alpha_1):
    with pytest.raises(OrthogonalityLost) as excinfo:
        run_convergence(RunConfig(family="gompertz", n_max=4, method="ortho"))
    assert excinfo.value.degree == 2
    assert [r.value for r in excinfo.value.records] == [Fraction(1, 2), Fraction(4, 7)]


def test_compare_reference():
    records = run_convergence(RunConfig(family="gompertz", n_max=2))
    ref = ReferenceConstant("gompertz", "0.5963473623")
    for r in records:
        assert r.gap == ref.as_fraction() - r.value


def test_emit_table_elides_large_rationals():
    records = run_convergence(RunConfig(family="gompertz", n_max=21, method="ortho"))
    big = records[-1]
    decimal = rat_to_decimal(big.value).text
    assert len(str(big.value)) > ELIDE_THRESHOLD
    table = emit(records, "table")
    assert f"21 | - | {decimal}" in table.splitlines()
    exact = emit(records, "table", exact=True)
    assert f"21 | {big.value} | {decimal}" in exact.splitlines()


def test_emit_table_digit_override():
    records = run_convergence(RunConfig(family="gompertz", n_max=1))
    table = emit(records, "table", digits=4)
    assert table.splitlines() == ["0 | 1/2 | 0.5000", "1 | 4/7 | 0.5714"]


def test_emit_csv():
    records = run_convergence(RunConfig(family="gompertz", n_max=1))
    lines = emit(records, "csv").splitlines()
    assert lines[0] == "n,P,Q,value,gap"
    assert lines[1].startswith("0,1,2,1/2,")
    assert lines[2].startswith("1,4,7,4/7,")
    fact = emit(run_convergence(RunConfig(family="factorial", n_max=1)), "csv")
    assert fact.splitlines()[1].endswith(",")  # empty gap column


def test_emit_json_roundtrip():
    records = run_convergence(RunConfig(family="zeta", k=2, n_max=3))
    text = emit(records, "json")
    rows = json.loads(text)
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert rows[1]["value"] == "135/89"
    assert [row["decimal"] for row in rows] == [rat_to_decimal(r.value).text for r in records]
    assert json.loads(emit(records, "json", digits=3))[1]["decimal"] == "1.517"
    assert all(isinstance(back, ApproximantRecord) for back in records_from_json(text))
    assert records_from_json(text) == records


def test_emit_writes_out_file(tmp_path):
    records = run_convergence(RunConfig(family="gompertz", n_max=1))
    out = tmp_path / "run.csv"
    text = emit(records, "csv", out=str(out))
    assert out.read_text() == text


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit([], "xml")


def test_cross_validate_builtin_passes():
    report = cross_validate("gompertz", 5)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "engine-agreement",
        "norm-factorization",
        "positive-Q",
        "monotone",
        "reference-bound",
    ]


def test_cross_validate_factorial_skips_reference():
    report = cross_validate("factorial", 5)
    assert report.passed
    assert all(c.name != "reference-bound" for c in report.checks)


def test_cross_validate_custom_positive_definite(write_moments_file):
    path = write_moments_file("mine", ["1", "2", "5", "16", "65", "326"])
    report = cross_validate("custom", 1, moments_file=str(path))
    assert report.passed
    assert report.family == "mine"


def test_cross_validate_reports_violation(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    report = cross_validate("custom", 2, moments_file=str(path))
    assert not report.passed
    assert report.violation is not None
    assert report.violation.index == 1
    assert [c.name for c in report.checks] == ["positive-definite"]
    assert not report.checks[0].passed
