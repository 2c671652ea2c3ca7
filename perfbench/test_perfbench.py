"""Fast checks of the benchmark itself: oracles, output checks, tracing, verdicts.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import compare
import run
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from hankel_approx import cli as program_cli  # noqa: E402
from hankel_approx import hankel, moments  # noqa: E402

TODAYS_GOMPERTZ_48 = """\
PASS engine-agreement: determinant and recurrence paths equal for n <= 48
PASS norm-factorization: Q_n equals the product of squared norms for n <= 48
PASS positive-Q: Q_n > 0 for n <= 48
PASS monotone: approximants nondecreasing for n <= 48
FAIL reference-bound: every approximant is strictly below 0.5963473623
"""


def cli_output(workload, seed, tmp_path):
    args = workload.prepare(seed, tmp_path)
    proc = subprocess.run([sys.executable, "-m", "hankel_approx.cli", *args],
                          capture_output=True, text=True, env=run.child_env(SRC))
    return proc.returncode, proc.stdout


# -- oracles against the program at small n --------------------------------

def test_gamma_moment_oracle_matches_program():
    for n in range(1, 13):
        assert workloads.gamma_moment(n) == moments.gamma_moment(n)


def test_determinant_oracle_matches_program():
    seq = moments.gamma_sequence()
    for n in range(5):
        assert workloads.hankel_pair(workloads.gamma_moment, n) == (
            hankel.hankel_P(seq, n), hankel.hankel_Q(seq, n))


def test_factorial_closed_forms_match_program():
    seq = moments.factorial_sequence()
    for n in range(8):
        assert hankel.hankel_Q(seq, n) == workloads.factorial_Q(n)
        assert hankel.hankel_P(seq, n) / hankel.hankel_Q(seq, n) == workloads.harmonic(n + 1)


def test_constant_intervals():
    for name, digits in (("gamma", "0.5772156649015328606065120900824024310421"),
                         ("gompertz", "0.5963473623231940743410784993692793760741")):
        lo, hi = workloads.constant_interval(name)
        assert hi - lo == Fraction(1, 10 ** 40)
        assert lo == Fraction(int(digits.replace("0.", "")), 10 ** 40)


def test_gompertz_fault_lies_between_reference_and_constant():
    # The known fault: the stored reference is truncated below delta, and the
    # approximant at n = 46 falls between the two.
    lo, _ = workloads.constant_interval("gompertz")
    stored = moments.gompertz_sequence().reference.as_fraction()
    assert stored < lo and lo - stored > Fraction(2, 10 ** 11)
    seq = moments.gompertz_sequence()
    assert stored < hankel.hankel_P(seq, 46) / hankel.hankel_Q(seq, 46) < lo


def test_measure_is_seeded_and_positive():
    assert workloads.discrete_measure(7) == workloads.discrete_measure(7)
    assert workloads.discrete_measure(7) != workloads.discrete_measure(8)
    measure = workloads.discrete_measure(7)
    assert len({x for x, _ in measure}) == 26
    assert all(0 < x < 1 and w > 0 for x, w in measure)


@pytest.mark.parametrize("factory, n_max", [
    (workloads.gamma_both, 5),
    (workloads.factorial_det, 8),
    (workloads.measure_ortho, 5),
])
def test_program_output_passes_checks_at_small_n(factory, n_max, tmp_path):
    workload = factory(n_max)
    assert workload.check(*cli_output(workload, 3, tmp_path)) is None


def test_gompertz_validate_passes_below_the_faulty_range(tmp_path):
    workload = workloads.gompertz_validate(12)
    assert workload.check(*cli_output(workload, 1, tmp_path)) is None


# -- failures are counted ----------------------------------------------------

def test_perturbed_row_is_counted_as_failed(tmp_path):
    workload = workloads.gamma_both(5)
    code, stdout = cli_output(workload, 1, tmp_path)
    lines = stdout.splitlines()
    n, P, rest = lines[4].split(",", 2)
    lines[4] = ",".join([n, P + "1", rest])
    tally = run.Tally(workload)
    tally.record(code, stdout)
    tally.record(code, "\n".join(lines))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.unexpected == ["value != P/Q at n = 3"]


def test_unreadable_output_is_counted_as_failed():
    tally = run.Tally(workloads.factorial_det(3))
    tally.record(0, "n,P,Q,value,gap\n0,1,x,1,\n")
    assert tally.failed == 1 and tally.unexpected


def test_todays_gompertz_verdict_is_the_known_fault():
    workload = workloads.gompertz_validate()
    tally = run.Tally(workload)
    tally.record(2, TODAYS_GOMPERTZ_48)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, [])

    mended = TODAYS_GOMPERTZ_48.replace("FAIL", "PASS")
    assert workload.check(0, mended) is None
    other = TODAYS_GOMPERTZ_48.replace("PASS monotone", "FAIL monotone")
    assert workload.check(2, other) != workload.known_fault


# -- tracing -----------------------------------------------------------------

def test_tracer_accounts_for_the_traced_wall_time(monkeypatch):
    monkeypatch.setitem(spans.TRACED, ("hankel", "no_such_function"), "hankel")
    tracer = spans.Tracer()
    original = hankel.hankel_P
    tracer.install()
    try:
        code, stdout, wall = run.run_in_process(
            program_cli, ["approx", "--family", "gamma", "--n-max", "3", "--format", "csv"], tracer)
    finally:
        tracer.uninstall()
    assert code == 0 and workloads.gamma_both(3).check(code, stdout) is None
    assert hankel.hankel_P is original
    assert tracer.absent == ["hankel.no_such_function"]
    m = tracer.metrics()
    assert m["hankel.kernel_calls"] == 8
    assert m["hankel.kernel_mults"] == sum(spans.kernel_mults(n + 2) + spans.kernel_mults(n + 1)
                                           for n in range(4))
    assert m["orthopoly.steps"] == 3
    assert m["orthopoly.inner_product_calls"] == 6
    assert m["driver.emit_bytes"] == len(stdout) - 1
    root = tracer.spans[0]
    assert root[0] == "cli" and root[3] == -1
    assert m["trace.self_sum_s"] == pytest.approx((root[2] - root[1]) / 1e9)
    assert m["trace.self_sum_s"] <= wall


def test_children_run_the_pure_kernel():
    assert run.child_env(SRC)["HANKEL_APPROX_PURE"] == "1"


def test_one_round_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    workload = workloads.gamma_both(3)
    tally = run.Tally(workload)
    values = run.measure_e2e(workload, workload.prepare(1, tmp_path), SRC, 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert set(values) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    assert all(v > 0 for v in values.values())


def test_kernel_mults_formula():
    # One-step Bareiss updates (n-1-k)^2 entries with two products at step k.
    for order in range(1, 8):
        assert spans.kernel_mults(order) == sum(2 * (order - 1 - k) ** 2 for k in range(order))


# -- comparison verdicts on synthetic numbers ----------------------------------

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_verdict_gain():
    change = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, change, 0.1) == "gain"
    assert compare.verdict(PARENT, [v * 1.25 for v in PARENT], 0.1, "higher") == "gain"


def test_verdict_regression_and_within_bound():
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], 0.1) == "regression"
    assert compare.verdict(PARENT, [v * 1.05 for v in PARENT], 0.1) == "within bound"
    assert compare.verdict(PARENT, list(PARENT), 0.1) == "within bound"


def test_verdict_needs_nine_of_ten_wins():
    change = [v * 0.97 for v in PARENT]
    change[0], change[1] = 10.5, 10.5  # two lost pairs
    assert compare.verdict(PARENT, change, 0.1) == "within bound"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(PARENT, noisy, 0.1) == "unresolved"
    # Unless every change run beats every parent run.
    assert compare.verdict(noisy, [v * 0.3 for v in noisy], 0.1) == "gain"


def test_verdict_spread_is_judged_before_gain():
    # 9/10 wins and a median gap far above the parent's IQR, but the change's
    # own spread (about 35%) exceeds the bound.
    change = [6.0, 9.5, 6.5, 9.0, 7.0, 8.5, 7.5, 8.0, 6.2, 10.5]
    assert compare.wins(PARENT, change, "lower") == 9
    assert compare.verdict(PARENT, change, 0.1) == "unresolved"


def test_no_gain_when_the_change_fails_more():
    change = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, change, 0.1, fails_more=True) == "within bound"


def test_failed_share_and_judge_lines():
    benchmark = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                                 "bound": 0.1}]}

    def side(values, failed):
        return {"runs": {"w": [{"seed": i, "result": {
            "correct": True, "attempted": 4, "failed": failed,
            "metrics": {"wall_s": {"value": v, "unit": "s"}}}} for i, v in enumerate(values)]}}

    lines = compare.judge(side(PARENT, 4), side([v * 0.5 for v in PARENT], 0), benchmark)
    assert lines[1].endswith("-> gain")
    assert lines[2] == "  failed share parent 1 change 0 -> DIFFERS"
    assert compare.failed_share(side(PARENT, 1)["runs"]["w"]) == Fraction(1, 4)

    lines = compare.judge(side(PARENT, 0), side([v * 0.5 for v in PARENT], 4), benchmark)
    assert lines[1].endswith("-> within bound")
    assert lines[2] == "  failed share parent 0 change 1 -> DIFFERS"
