"""The four benchmark workloads, their inputs and their output checks.

Every check is computed here, independently of the package under test:
moments from the README formulas, determinants by plain Gaussian
elimination over Fractions, constants from mpmath, and closed forms
(factorial products, harmonic numbers, the total mass of a discrete
measure). None of them is a stored copy of the program's output.

A check returns None when the output is right, or a one-line reason.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from pathlib import Path
from typing import Callable

# The exact rows hold numbers of tens of thousands of digits. Parse them
# without relying on the limit the package under test raises on import.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


# ---------------------------------------------------------------------------
# oracles

def gamma_moment(n: int) -> Fraction:
    """a_n = (n-1)! sum_{i=0..n} C(n,i) (-1)^i (n-2i-1)/(i+1)^(n+1), from the README."""
    total = sum(
        Fraction((-1) ** i * comb(n, i) * (n - 2 * i - 1), (i + 1) ** (n + 1))
        for i in range(n + 1)
    )
    return factorial(n - 1) * total


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions (no fraction-free tricks)."""
    m = [[Fraction(x) for x in row] for row in rows]
    size = len(m)
    result = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        result *= m[c][c]
        for r in range(c + 1, size):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, size):
                    m[r][k] -= f * m[c][k]
    return result


def hankel_pair(moment: Callable[[int], Fraction], n: int) -> tuple[Fraction, Fraction]:
    """(P_n, Q_n) = (-det(a_{i+j})_{i,j<=n+1}, det(a_{i+j+2})_{i,j<=n}), a_0 = 0."""
    a = [Fraction(0)] + [moment(k) for k in range(1, 2 * n + 3)]
    P = -det([[a[i + j] for j in range(n + 2)] for i in range(n + 2)])
    Q = det([[a[i + j + 2] for j in range(n + 1)] for i in range(n + 1)])
    return P, Q


def factorial_Q(n: int) -> int:
    """det((i+j+1)!)_{i,j<=n} = prod_{k<=n} k!(k+1)!."""
    return prod(factorial(k) * factorial(k + 1) for k in range(n + 1))


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def constant_interval(name: str, digits: int = 40) -> tuple[Fraction, Fraction]:
    """Rational interval [lo, lo + 10^-digits) holding gamma or the Gompertz constant."""
    import mpmath

    with mpmath.workdps(digits + 20):
        if name == "gamma":
            x = +mpmath.euler
        elif name == "gompertz":
            x = mpmath.e * mpmath.e1(1)
        else:
            raise ValueError(f"no reference for {name!r}")
        lo = int(mpmath.floor(x * mpmath.mpf(10) ** digits))
    return Fraction(lo, 10 ** digits), Fraction(lo + 1, 10 ** digits)


# ---------------------------------------------------------------------------
# the seeded discrete measure behind measure-ortho

MEASURE_DENOMINATORS = tuple(range(230, 256))  # 26 distinct 8-bit denominators
WEIGHT_DENOMINATOR = 256


def discrete_measure(seed: int, count: int = 26) -> list[tuple[Fraction, Fraction]]:
    """``count`` (node, weight) pairs: nodes p/d in (0,1), d fixed, p seeded and
    coprime to d (so the nodes are distinct); weights u/256, u seeded in [1, 255].

    Fixing the denominators fixes the size of every moment's denominator, so
    the cost of a run hardly depends on the seed.
    """
    rng = random.Random(seed)
    measure = []
    for d in MEASURE_DENOMINATORS[:count]:
        p = rng.randrange(1, d)
        while gcd(p, d) != 1:
            p = rng.randrange(1, d)
        measure.append((Fraction(p, d), Fraction(rng.randint(1, 255), WEIGHT_DENOMINATOR)))
    return measure


def measure_moments(measure, count: int) -> list[Fraction]:
    """a_k = sum_i w_i x_i^k for k = 1 .. count; the approximants tend to sum_i w_i."""
    return [sum(w * x ** k for x, w in measure) for k in range(1, count + 1)]


# ---------------------------------------------------------------------------
# output parsing and checks

def parse_rational(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def csv_rows(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "n,P,Q,value,gap":
        raise ValueError("missing csv header")
    rows = []
    for line in lines[1:]:
        n, P, Q, value, _gap = line.split(",")
        rows.append((int(n), parse_rational(P), parse_rational(Q), parse_rational(value)))
    return rows


def json_rows(stdout: str):
    return [(r["n"], parse_rational(r["P"]), parse_rational(r["Q"]),
             parse_rational(r["value"])) for r in json.loads(stdout)]


def check_rows(rows, n_max: int) -> str | None:
    """Every index present once, in order, and value = P/Q exactly."""
    if [r[0] for r in rows] != list(range(n_max + 1)):
        return f"rows are not n = 0 .. {n_max}"
    for n, P, Q, value in rows:
        if Q == 0 or P / Q != value:
            return f"value != P/Q at n = {n}"
    return None


def strictly_increasing(rows) -> str | None:
    for (n, *_, prev), (_, *_, cur) in zip(rows, rows[1:]):
        if not prev < cur:
            return f"approximants do not increase at n = {n + 1}"
    return None


@dataclass
class Workload:
    """One CLI command on fixed-shape inputs, with its own output check.

    ``prepare(seed, workdir)`` writes any input files and returns the CLI
    arguments; ``check(exit_code, stdout)`` returns None or a failure reason.
    ``known_fault`` is the reason reported for a failure the program is known
    to produce on every run; such a failure counts in ``failed`` but does not
    make the run incorrect.
    """

    name: str
    prepare: Callable[[int, Path], list]
    check: Callable[[int, str], str | None]
    known_fault: str | None = None
    # Calibration loops timed after each operation (run.py): enough that
    # their total time is about a tenth of the operation's.
    calibration_loops: int = 1


def gamma_both(n_max: int = 13) -> Workload:
    lo, _ = constant_interval("gamma")
    small = {n: hankel_pair(gamma_moment, n) for n in range(min(n_max, 4) + 1)}

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        rows = csv_rows(stdout)
        reason = check_rows(rows, n_max) or strictly_increasing(rows)
        if reason:
            return reason
        for n, P, Q, _ in rows[:len(small)]:
            if (P, Q) != small[n]:
                return f"P_{n}, Q_{n} differ from the determinant oracle"
        for n, *_, value in rows:
            if not value < lo:
                return f"approximant {n} is not below gamma"
        return None

    return Workload(
        "gamma-both",
        lambda seed, workdir: ["approx", "--family", "gamma", "--n-max", str(n_max),
                               "--format", "csv"],
        check)


def factorial_det(n_max: int = 35) -> Workload:
    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        rows = csv_rows(stdout)
        reason = check_rows(rows, n_max)
        if reason:
            return reason
        for n, P, Q, value in rows:
            if Q != factorial_Q(n):
                return f"Q_{n} != prod k!(k+1)!"
            if value != harmonic(n + 1):
                return f"P_{n}/Q_{n} != H_{n + 1}"
        return None

    return Workload(
        "factorial-det",
        lambda seed, workdir: ["approx", "--family", "factorial", "--n-max", str(n_max),
                               "--method", "det", "--format", "csv"],
        check)


def measure_ortho(n_max: int = 15) -> Workload:
    """n_max + 1 nodes: the last approximant is the first that reaches the mass."""
    state = {}

    def prepare(seed, workdir):
        measure = discrete_measure(seed, n_max + 1)
        state["mass"] = sum(w for _, w in measure)
        path = Path(workdir) / f"measure-{seed}.json"
        path.write_text(json.dumps({
            "name": f"measure-{seed}",
            "a": [str(v) for v in measure_moments(measure, 2 * n_max + 2)],
        }))
        return ["approx", "--family", "custom", "--moments-file", str(path),
                "--n-max", str(n_max), "--format", "json"]

    def check(code, stdout):
        if code != 0:
            return f"exit code {code}"
        rows = json_rows(stdout)
        reason = check_rows(rows, n_max) or strictly_increasing(rows)
        if reason:
            return reason
        if rows[-1][3] != state["mass"]:
            return "last approximant != total mass of the measure"
        return None

    return Workload("measure-ortho", prepare, check)


VALIDATE_CHECKS = ("engine-agreement", "norm-factorization", "positive-Q", "monotone",
                   "reference-bound")


def gompertz_validate(n_max: int = 48) -> Workload:
    """Expect every check to PASS with exit code 0: the moments are those of a
    positive measure, so the approximants increase toward the Gompertz constant
    and stay below it. The package's stored reference lies below the constant,
    so from n = 46 on it reports FAIL reference-bound: the known fault."""

    def check(code, stdout):
        verdicts = {}
        for line in stdout.strip().splitlines():
            status, _, rest = line.partition(" ")
            verdicts[rest.partition(":")[0]] = status
        missing = [c for c in VALIDATE_CHECKS if c not in verdicts]
        if missing:
            return f"missing checks {missing}"
        failing = sorted(name for name, status in verdicts.items() if status != "PASS")
        if failing:
            return f"FAIL {' '.join(failing)} (exit code {code})"
        if code != 0:
            return f"exit code {code}"
        return None

    return Workload(
        "gompertz-validate",
        lambda seed, workdir: ["validate", "--family", "gompertz", "--n-max", str(n_max)],
        check, known_fault="FAIL reference-bound (exit code 2)", calibration_loops=16)


FACTORIES = {
    "gamma-both": gamma_both,
    "factorial-det": factorial_det,
    "measure-ortho": measure_ortho,
    "gompertz-validate": gompertz_validate,
}
