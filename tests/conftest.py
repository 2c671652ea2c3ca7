from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import operator
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from hankel_approx import driver, hankel, orthopoly
from hankel_approx.cli import main
from hankel_approx.driver import ApproximantRecord
from hankel_approx.moments import (
    MomentSequence,
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    zeta_sequence,
)


CliRun = namedtuple("CliRun", "exit_code stdout stderr")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(args) -> CliRun:
    """Run the command line in this process on ``args``: its exit code (0
    when it returns), stdout and stderr. Any other exception propagates."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliRun(code, stdout.getvalue(), stderr.getvalue())


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported from its file and left unchanged."""
    # Importing the module lifts the int/str digit limit for the whole
    # process; put back the limit the package set. Its dataclass needs the
    # module in sys.modules while it runs.
    limit = sys.get_int_max_str_digits()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)
        try:
            spec.loader.exec_module(module)
        finally:
            sys.set_int_max_str_digits(limit)
    return module


def measure_ortho_moments(workloads, seed: int, n_max: int = 15):
    """The moments of measure-ortho's file for ``seed`` and ``n_max``, read exactly."""
    measure = workloads.discrete_measure(seed, n_max + 1)
    return MomentSequence(f"measure-{seed}", values=workloads.measure_moments(measure, 2 * n_max + 2))


@pytest.fixture
def gamma_seq():
    return gamma_sequence()


@pytest.fixture
def gompertz_seq():
    return gompertz_sequence()


@pytest.fixture
def zeta2_seq():
    return zeta_sequence(2)


@pytest.fixture
def zeta3_seq():
    return zeta_sequence(3)


@pytest.fixture
def factorial_seq():
    return factorial_sequence()


@pytest.fixture
def write_moments_file(tmp_path):
    """Return a helper that writes a moment file and returns its path."""

    def _write(name: str, a: list[str], reference: str | None = None, filename: str = "moments.json"):
        payload: dict = {"name": name, "a": a}
        if reference is not None:
            payload["reference"] = reference
        path = tmp_path / filename
        path.write_text(json.dumps(payload))
        return path

    return _write


def skew_coefficient(monkeypatch, bad_k: int, which: int) -> None:
    """Add one to the recurrence's alpha_{bad_k} (``which`` 0) or beta_{bad_k}
    (``which`` 1); every other coefficient stays exact."""
    exact = orthopoly._coefficients

    def skewed(row, prev):
        pair = list(exact(row, prev))
        # Entries 1..k of row k are zeros and entry k + 1, t_k d_k, is positive.
        k = next(j for j, x in enumerate(row[0][1:]) if x)
        if k == bad_k:
            pair[which] += 1
        return tuple(pair)

    monkeypatch.setattr(orthopoly, "_coefficients", skewed)


@pytest.fixture
def skew_alpha(monkeypatch):
    """Return a helper that shifts the recurrence's alpha_k by one.

    After ``skew_alpha(k)`` the skewed q_{k+1} is the true one minus q_k, so
    it stays orthogonal to q_0 .. q_{k-1} but <q_{k+1}, q_k> = -t_k, and the
    recurrence must stop at degree k + 1.
    """
    return lambda bad_k: skew_coefficient(monkeypatch, bad_k, 0)


@pytest.fixture
def skew_beta(monkeypatch):
    """Return a helper that shifts the recurrence's beta_k by one.

    After ``skew_beta(k)`` the skewed q_{k+1} is the true one minus q_{k-1},
    so it stays orthogonal to q_k but <q_{k+1}, q_{k-1}> = -t_{k-1}, and
    the recurrence must stop at degree k + 1.
    """
    return lambda bad_k: skew_coefficient(monkeypatch, bad_k, 1)


@pytest.fixture
def skewed_alpha_1(skew_alpha):
    """Shift the recurrence's alpha_1 by one: it must stop at degree 2, with
    <q_2, q_1> = -t_1."""
    skew_alpha(1)


def ortho_records(seq, n_max: int):
    """Yield the records for n = 0 .. n_max from ``ortho_sweep`` read
    directly: the recurrence alone, with no determinant check and no gap.
    An abortive error comes after the records before it, as from the
    driver's walk."""
    for n, (P, Q) in enumerate(orthopoly.ortho_sweep(seq, n_max)):
        yield ApproximantRecord(n, P, Q, P / Q, None)


def det_records(seq, n_max: int):
    """Yield the records for n = 0 .. n_max from ``hankel_sweep`` read
    directly: the exact determinants alone, with no recurrence and no gap.
    A stop, NonPositiveQ included, comes after the records before it."""
    for n, (P, Q) in enumerate(hankel.hankel_sweep(seq, n_max)):
        yield ApproximantRecord(n, P, Q, P / Q, None)


def collect(rows, into: list) -> None:
    """Append the records that the iteration ``rows`` yields to ``into``
    one by one: a stop raised part way leaves the rows before it there."""
    for row in rows:
        into.append(row)


def record_coefficients(monkeypatch) -> list:
    """Return a list that every (alpha_k, beta_k) the recurrence computes is
    appended to, in order; the values themselves stay exact."""
    exact, recorded = orthopoly._coefficients, []

    def recording(row, prev):
        recorded.append(exact(row, prev))
        return recorded[-1]

    monkeypatch.setattr(orthopoly, "_coefficients", recording)
    return recorded


def moment(seq, n: int):
    """a_n, the last of ``seq.prefix(n)``: a ValueError for n < 1 and the
    sequence's IndexOutOfRange where it holds fewer than n moments."""
    if n < 1:
        raise ValueError(f"moments are defined for n >= 1, got {n}")
    known, short = seq.prefix(n)
    if short is not None:
        raise short
    return known[-1]


def moment_list(seq, n_max: int) -> list:
    """a_0 = 0, a_1 .. a_{2 n_max + 2}: the list the determinant tables take."""
    return [0, *seq.prefix(2 * n_max + 2)[0]]


def exact_table(seq, n_max: int) -> tuple:
    """The moment list and divide that the exact route hands its table:
    ints and // on integer moments, Fractions and / otherwise."""
    a = moment_list(seq, n_max)
    if all(x.denominator == 1 for x in a):
        return [x.numerator for x in a], operator.floordiv
    return a, operator.truediv


def record_eliminations(monkeypatch) -> list:
    """Return a list that gets one entry per run of the bordered elimination
    ``hankel._eliminate``: True for an exact run, False for one mod a prime."""
    exact, recorded = hankel._eliminate, []

    def recording(a, divide):
        recorded.append(divide in (operator.floordiv, operator.truediv))
        return exact(a, divide)

    monkeypatch.setattr(hankel, "_eliminate", recording)
    return recorded


@pytest.fixture
def coefficients(monkeypatch):
    """The recurrence's (alpha_k, beta_k), k = 0, 1, ..., recorded as a test
    runs it; the polynomial oracle rebuilds q_0, q_1, ... from them."""
    return record_coefficients(monkeypatch)


def skew_rows(monkeypatch, route: str, bad_n: int, change) -> None:
    """Make row ``bad_n`` of the driver's ``route`` come out as ``change(*row)``.

    ``route`` names a generator of (P_n, Q_n)-like pairs that the driver
    calls: "hankel_sweep", "hankel_residues" or "ortho_sweep". Every
    other row stays as it was.
    """
    exact = getattr(driver, route)

    def skewed(*args):
        for n, row in enumerate(exact(*args)):
            yield change(*row) if n == bad_n else row

    monkeypatch.setattr(driver, route, skewed)


@pytest.fixture
def skew_sweep(monkeypatch):
    """Return a helper that rewrites one row of the driver's exact determinant sweep.

    ``skew_sweep(n, change)`` makes row n come out as ``change(P_n, Q_n)``;
    every other row stays exact.
    """
    return lambda bad_n, change: skew_rows(monkeypatch, "hankel_sweep", bad_n, change)


@pytest.fixture
def skew_residues(monkeypatch):
    """Like ``skew_sweep``, for the determinants mod the check prime that
    ``approx``'s default walk compares against."""
    return lambda bad_n, change: skew_rows(monkeypatch, "hankel_residues", bad_n, change)
