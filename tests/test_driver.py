from __future__ import annotations

import json
from fractions import Fraction

import pytest

from hankel_approx import driver
from hankel_approx.driver import (
    CHECK_PRIME,
    ELIDE_THRESHOLD,
    ApproximantRecord,
    cross_validate,
    render,
    walk,
)
from hankel_approx.errors import (
    EngineMismatch,
    IndexOutOfRange,
    NonPositiveQ,
    OrthogonalityLost,
    PositivityViolation,
    RunStopped,
)
from hankel_approx.exactnum import rat_to_decimal
from hankel_approx.hankel import hankel_residues
from hankel_approx.moments import (
    ReferenceConstant,
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    load_moments,
    zeta_sequence,
)

from .conftest import collect, det_records, ortho_records
from .golden_values import GOMPERTZ_ROWS
from .oracles import records_from_json


def test_runs_reject_bad_input():
    # Both take a resolved sequence; the family arguments are checked where
    # they are resolved (test_moments and the CLI's usage-error tests).
    list(walk(gamma_sequence(), 0))  # minimal valid run
    for run in (lambda *args: list(walk(*args)), cross_validate):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            run(gamma_sequence(), -1)
    with pytest.raises(TypeError):  # one route: a route name is no longer an argument
        walk(gompertz_sequence(), 3, "det")


def test_walk_routes_yield_the_same_records(write_moments_file):
    path = write_moments_file("mine", ["1", "2", "5", "16"])
    for seq, n_max in ((gompertz_sequence, 2), (lambda: load_moments(path), 1)):
        both = list(walk(seq(), n_max))
        assert len(both) == n_max + 1
        assert list(det_records(seq(), n_max)) == [r._replace(gap=None) for r in both]


def test_walk_matches_known_rows():
    records = list(walk(gompertz_sequence(), 5))
    assert [r.n for r in records] == list(range(6))
    for r in records:
        frac, decimal = GOMPERTZ_ROWS[r.n]
        assert r.value == Fraction(frac)
        assert r.P / r.Q == r.value
        assert rat_to_decimal(r.value) == decimal
        assert r.gap is not None and r.gap > 0


def test_walk_gaps_shrink():
    records = list(walk(zeta_sequence(2), 6))
    gaps = [r.gap for r in records]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_walk_methods_agree():
    det = list(det_records(zeta_sequence(3), 5))
    ortho = list(ortho_records(zeta_sequence(3), 5))
    assert [r.value for r in det] == [r.value for r in ortho]
    assert [(r.P, r.Q) for r in det] == [(r.P, r.Q) for r in ortho]


def test_walk_factorial_has_no_gap():
    records = list(walk(factorial_sequence(), 4))
    assert all(r.gap is None for r in records)


def test_walk_positivity_violation_carries_records(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    partial = []
    with pytest.raises(PositivityViolation):
        collect(walk(load_moments(path), 3), partial)
    assert [r.n for r in partial] == [0]
    assert partial[0].value == 1


def test_walk_nonpositive_Q_carries_records(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    partial = []
    with pytest.raises(NonPositiveQ) as excinfo:
        collect(det_records(load_moments(path), 3), partial)
    assert (excinfo.value.index, excinfo.value.value) == (1, 0)
    assert str(excinfo.value) == "positive definiteness fails at degree 1: squared norm 0 <= 0"
    assert [r.n for r in partial] == [0]


# The driver's walk, and each route read directly, which must stop the same way.
ROUTES = {"ortho": ortho_records, "det": det_records, "both": walk}


@pytest.mark.parametrize("method", ["ortho", "det", "both"])
def test_walk_short_file_carries_records(write_moments_file, method):
    path = write_moments_file("short", ["1", "2", "5", "16"])
    partial = []
    with pytest.raises(IndexOutOfRange) as excinfo:
        collect(ROUTES[method](load_moments(path), 3), partial)
    assert (excinfo.value.requested, excinfo.value.available) == (5, 4)
    assert [r.value for r in partial] == [Fraction(1, 2), Fraction(4, 7)]


@pytest.mark.parametrize("method", ["ortho", "det", "both"])
def test_walk_short_file_of_odd_length_carries_records(write_moments_file, method):
    # a_5 is there but a_6 is not: the rows n = 0, 1 come first, and the
    # stop names a_6, as if the moments were read one at a time.
    path = write_moments_file("short", ["1", "2", "5", "16", "65"])
    partial = []
    with pytest.raises(IndexOutOfRange) as excinfo:
        collect(ROUTES[method](load_moments(path), 3), partial)
    assert (excinfo.value.requested, excinfo.value.available) == (6, 5)
    assert [r.value for r in partial] == [Fraction(1, 2), Fraction(4, 7)]


@pytest.mark.parametrize("method", ["ortho", "both"])
def test_short_flat_file_stops_at_positivity_first(write_moments_file, method):
    # t_1 = 0 comes before the missing a_6 on the recurrence's side.
    path = write_moments_file("flat", ["1"] * 5)
    partial = []
    with pytest.raises(PositivityViolation) as excinfo:
        collect(ROUTES[method](load_moments(path), 3), partial)
    assert (excinfo.value.index, excinfo.value.value) == (1, 0)
    assert [r.value for r in partial] == [1]


def test_walk_detects_engine_mismatch(skew_residues):
    skew_residues(0, lambda P, Q: (0, Q))
    partial = []
    with pytest.raises(EngineMismatch) as excinfo:
        collect(walk(gompertz_sequence(), 2), partial)
    assert excinfo.value.n == 0
    assert partial == []
    assert excinfo.value.modulus == CHECK_PRIME == 2**61 - 1
    assert (excinfo.value.det_pair, excinfo.value.ortho_pair) == ((0, 2), (1, 2))
    assert str(excinfo.value).endswith(", both mod 2305843009213693951")


def test_cross_validate_detects_engine_mismatch_exactly(monkeypatch, skew_sweep):
    skew_sweep(0, lambda P, Q: (Fraction(0), Q))
    yielded, raised, exact_walk = [], [], driver.walk

    def spy(*args, **kwargs):
        try:
            for record in exact_walk(*args, **kwargs):
                yielded.append(record)
                yield record
        except EngineMismatch as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(driver, "walk", spy)
    checks = cross_validate(gompertz_sequence(), 2)
    assert checks == [("engine-agreement", False, "paths disagree first at n = 0")]
    [exc] = raised
    assert exc.modulus is None
    assert (exc.n, yielded) == (0, [])
    assert (exc.det_pair, exc.ortho_pair) == ((0, 2), (1, 2))
    assert "mod" not in str(exc)


def test_default_walk_compares_exactly_from_the_first_row_the_prime_cannot_form(
        monkeypatch, skew_sweep):
    # Mod 7 the gompertz table meets a zero divisor in row 2, so rows 0 and 1
    # are checked by residues and rows 2 on against the exact sweep.
    monkeypatch.setattr(driver, "CHECK_PRIME", 7)
    assert len(list(hankel_residues(gompertz_sequence(), 6, 7))) == 2
    skew_sweep(1, lambda P, Q: (P + 1, Q))
    both = list(walk(gompertz_sequence(), 6))
    ortho = list(ortho_records(gompertz_sequence(), 6))
    assert [(r.n, r.P, r.Q) for r in both] == [(r.n, r.P, r.Q) for r in ortho]
    skew_sweep(4, lambda P, Q: (P, Q + 1))  # on top of the row-1 change
    partial = []
    with pytest.raises(EngineMismatch) as excinfo:
        collect(walk(gompertz_sequence(), 6), partial)
    assert (excinfo.value.n, excinfo.value.modulus) == (4, None)
    assert [r.n for r in partial] == [0, 1, 2, 3]


def test_walk_lost_orthogonality_carries_records(skewed_alpha_1):
    partial = []
    with pytest.raises(OrthogonalityLost) as excinfo:
        collect(walk(gompertz_sequence(), 4), partial)
    assert excinfo.value.degree == 2
    assert [r.value for r in partial] == [Fraction(1, 2), Fraction(4, 7)]


def test_every_stop_is_a_run_stopped_with_its_exit_code():
    # perfbench's moment-load observer reads moments until an IndexError.
    assert issubclass(IndexOutOfRange, IndexError)
    codes = {IndexOutOfRange: 4, NonPositiveQ: 3, PositivityViolation: 3,
             EngineMismatch: 2, OrthogonalityLost: 2}
    assert all(issubclass(cls, RunStopped) for cls in codes)
    assert {cls: cls.exit_code for cls in codes} == codes


def test_compare_reference():
    records = list(walk(gompertz_sequence(), 2))
    ref = ReferenceConstant("0.5963473623")
    for r in records:
        assert r.gap == ref.as_fraction() - r.value


def test_render_table_elides_large_rationals():
    records = list(walk(gompertz_sequence(), 21))
    big = records[-1]
    decimal = rat_to_decimal(big.value)
    assert len(str(big.value)) > ELIDE_THRESHOLD
    table = "".join(render(records, "table"))
    assert f"21 | - | {decimal}" in table.splitlines()
    assert str(big.value) == "714785218276618032951940/1198605668577020653881647"
    assert json.loads("".join(render(records, "json")))[21]["value"] == str(big.value)


def test_render_table_digit_override():
    records = list(walk(gompertz_sequence(), 1))
    table = "".join(render(records, "table", digits=4))
    assert table.splitlines() == ["0 | 1/2 | 0.5000", "1 | 4/7 | 0.5714"]


def test_render_csv():
    records = list(walk(gompertz_sequence(), 1))
    lines = "".join(render(records, "csv")).splitlines()
    assert lines[0] == "n,P,Q,value,gap"
    assert lines[1].startswith("0,1,2,1/2,")
    assert lines[2].startswith("1,4,7,4/7,")
    fact = "".join(render(walk(factorial_sequence(), 1), "csv"))
    assert fact.splitlines()[1].endswith(",")  # empty gap column


def test_render_json_roundtrip():
    records = list(walk(zeta_sequence(2), 3))
    text = "".join(render(records, "json"))
    rows = json.loads(text)
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert rows[1]["value"] == "135/89"
    assert [row["decimal"] for row in rows] == [rat_to_decimal(r.value) for r in records]
    assert json.loads("".join(render(records, "json", digits=3)))[1]["decimal"] == "1.517"
    assert all(isinstance(back, ApproximantRecord) for back in records_from_json(text))
    assert records_from_json(text) == records


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        list(render([], "xml"))


def json_document(records) -> str:
    """What json.dumps prints for records as rows of the JSON format, and a
    newline: the text the json renderer must give, piece by piece."""
    return json.dumps([{
        "n": r.n, "P": str(Fraction(r.P)), "Q": str(Fraction(r.Q)), "value": str(r.value),
        "decimal": rat_to_decimal(r.value), "gap": None if r.gap is None else str(r.gap)}
        for r in records], indent=2) + "\n"


def test_render_json_is_json_dumps_one_element_at_a_time():
    records = list(walk(gompertz_sequence(), 21))
    for count in (0, 1, 2, 22):
        pieces = list(render(records[:count], "json"))
        assert len(pieces) == (count + 1 if count else 0)  # one per row, then "]"
        assert "".join(pieces) == (json_document(records[:count]) if count else "")

    def stopped():
        yield from records[:3]
        raise NonPositiveQ(3, -1)

    pieces = []
    with pytest.raises(NonPositiveQ):
        collect(render(stopped(), "json"), pieces)
    text = "".join(pieces)
    assert text == json_document(records[:3])  # the array closed before the stop
    assert [row["n"] for row in json.loads(text)] == [0, 1, 2]


def test_cross_validate_builtin_passes():
    checks = cross_validate(gompertz_sequence(), 5)
    assert all(passed for _, passed, _ in checks)
    names = [name for name, _, _ in checks]
    assert names == [
        "engine-agreement",
        "norm-factorization",
        "positive-Q",
        "monotone",
        "reference-bound",
    ]


def test_cross_validate_factorial_skips_reference():
    checks = cross_validate(factorial_sequence(), 5)
    assert all(passed for _, passed, _ in checks)
    assert all(name != "reference-bound" for name, _, _ in checks)


def test_cross_validate_custom_positive_definite(write_moments_file):
    path = write_moments_file("mine", ["1", "2", "5", "16", "65", "326"])
    checks = cross_validate(load_moments(path), 1)
    assert all(passed for _, passed, _ in checks)
    assert [name for name, _, _ in checks] == [
        "engine-agreement", "norm-factorization", "positive-Q", "monotone"]


def test_cross_validate_reports_violation(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    checks = cross_validate(load_moments(path), 2)
    assert checks == [("positive-definite", False,
                       "squared norm fails at degree 1; positive through 0")]
    path = write_moments_file("z", ["1", "0"])
    checks = cross_validate(load_moments(path), 0)
    assert checks == [("positive-definite", False,
                       "squared norm fails at degree 0; positive at no degree")]


def test_cross_validate_passes_inside_the_last_reference_digit():
    # The stored 0.5963473623 is truncated below the Gompertz constant, and
    # A_46 .. A_48 lie between the two: the bound is undecided there, not failed.
    checks = cross_validate(gompertz_sequence(), 48)
    assert all(passed for _, passed, _ in checks)
    name, _, detail = checks[-1]
    assert name == "reference-bound"
    assert detail.endswith("the first at or above 0.5963473623 is n = 46")
