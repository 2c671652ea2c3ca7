from __future__ import annotations

import contextlib
import io
import json
from collections import namedtuple

import pytest

from hankel_approx import driver, hankel, orthopoly
from hankel_approx.cli import main
from hankel_approx.driver import ApproximantRecord
from hankel_approx.errors import RunStopped
from hankel_approx.moments import (
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    zeta_sequence,
)


CliRun = namedtuple("CliRun", "exit_code stdout stderr")


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


@pytest.fixture
def skew_alpha(monkeypatch):
    """Return a helper that shifts the recurrence's alpha_k by one.

    After ``skew_alpha(k)`` the skewed q_{k+1} is the true one minus q_k, so
    it stays orthogonal to q_0 .. q_{k-1} but <q_{k+1}, q_k> = -t_k, and the
    recurrence must stop at degree k + 1.
    """
    exact = orthopoly._coefficients

    def skew(bad_k):
        def skewed(sigma, t, k):
            alpha, beta = exact(sigma, t, k)
            return (alpha + 1 if k == bad_k else alpha), beta

        monkeypatch.setattr(orthopoly, "_coefficients", skewed)

    return skew


@pytest.fixture
def skewed_alpha_1(skew_alpha):
    """Shift the recurrence's alpha_1 by one: it must stop at degree 2, with
    <q_2, q_1> = -t_1."""
    skew_alpha(1)


def ortho_records(seq, n_max: int) -> list:
    """Records for n = 0 .. n_max from ``ortho_sweep`` read directly: the
    recurrence alone, with no determinant check and no gap. An abortive
    error carries the records before it, as from the driver's walk."""
    records = []
    try:
        for n, (P, Q) in enumerate(orthopoly.ortho_sweep(seq, n_max)):
            records.append(ApproximantRecord(n, P, Q, P / Q, None, "ortho"))
    except RunStopped as exc:
        exc.records = records
        raise
    return records


def record_coefficients(monkeypatch) -> list:
    """Return a list that every (alpha_k, beta_k) the recurrence computes is
    appended to, in order; the values themselves stay exact."""
    exact, recorded = orthopoly._coefficients, []

    def recording(sigma, t, k):
        recorded.append(exact(sigma, t, k))
        return recorded[-1]

    monkeypatch.setattr(orthopoly, "_coefficients", recording)
    return recorded


def record_eliminations(monkeypatch) -> list:
    """Return a list that gets one entry per run of the bordered elimination
    ``hankel._eliminate``: True for an exact run, False for one mod a prime."""
    exact, recorded = hankel._eliminate, []

    def recording(moment, divide, n_max):
        recorded.append(divide is hankel._quotient)
        return exact(moment, divide, n_max)

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
