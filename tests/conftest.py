from __future__ import annotations

import json

import pytest

from hankel_approx import driver, orthopoly
from hankel_approx.moments import (
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    zeta_sequence,
)


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
def skewed_alpha_1(monkeypatch):
    """Shift the recurrence's alpha_1 by one.

    The skewed q_2 is the true one minus q_1, so it stays orthogonal to
    q_0 but <q_2, q_1> = -t_1, and the recurrence must stop at degree 2.
    """
    exact = orthopoly._coefficients

    def skewed(sigma, t, k):
        alpha, beta = exact(sigma, t, k)
        return (alpha + 1 if k == 1 else alpha), beta

    monkeypatch.setattr(orthopoly, "_coefficients", skewed)


@pytest.fixture
def skew_sweep(monkeypatch):
    """Return a helper that rewrites one row of the driver's determinant sweep.

    ``skew_sweep(n, change)`` makes row n come out as ``change(P_n, Q_n)``;
    every other row stays exact.
    """
    exact = driver.hankel_sweep

    def _skew(bad_n, change):
        def skewed(seq, n_max):
            for n, (P, Q) in enumerate(exact(seq, n_max)):
                yield change(P, Q) if n == bad_n else (P, Q)

        monkeypatch.setattr(driver, "hankel_sweep", skewed)

    return _skew
