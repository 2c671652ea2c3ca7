"""Convergence runs, engine cross-validation, and output rendering.

The driver walks n = 0 .. n_max for a moment sequence, producing one
ApproximantRecord per index. Each route is one pass over the moments: the
determinant sweep (``hankel_sweep``, a condensation table) and the
recurrence (``ortho_states``, a mixed-moment table). One walk serves both
``approx`` and ``validate``: with ``method="both"`` the two routes advance
in lock step, and at every index the recurrence's (A_n N_n, N_n), where
N_n is the running product of its squared norms, must equal the
determinants' (P_n, Q_n); a disagreement aborts the run. Abortive errors
(EngineMismatch, OrthogonalityLost, PositivityViolation, NonPositiveQ,
IndexOutOfRange) carry the records produced before the failure so callers
can still report partial progress.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    EngineMismatch,
    IndexOutOfRange,
    NonPositiveQ,
    OrthogonalityLost,
    PositivityViolation,
)
from .exactnum import DEFAULT_DIGITS, format_rational, rat_to_decimal
from .hankel import hankel_sweep
from .moments import family_sequence
from .orthopoly import ortho_states

# Process exit codes used by the CLI.
EXIT_VALIDATION = 2
EXIT_POSITIVITY = 3
EXIT_IO = 4

ELIDE_THRESHOLD = 40  # table cells longer than this print as "-" unless exact

METHODS = ("det", "ortho", "both")
FORMATS = ("table", "csv", "json")


@dataclass
class RunConfig:
    """Everything a convergence run needs.

    ``method=None`` resolves to "both" for built-in families and "ortho"
    for custom sequences: a custom sequence can put a zero divisor in the
    determinant sweep's table, and from there on the sweep falls back to
    per-index elimination, O(N^4) instead of O(N^2); the recurrence has no
    such case.
    """

    family: str
    n_max: int
    k: int | None = None
    method: str | None = None
    moments_file: str | None = None

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.family == "zeta" and (self.k is None or self.k < 2):
            raise ValueError("zeta family requires k >= 2")
        if self.family == "custom" and not self.moments_file:
            raise ValueError("custom family requires a moments file")
        if self.method is not None and self.method not in METHODS:
            raise ValueError(f"unknown method: {self.method!r}")


@dataclass(frozen=True)
class ApproximantRecord:
    """One convergence row: exact P_n, Q_n, their ratio, and the gap to the target."""

    n: int
    P: Fraction
    Q: Fraction
    value: Fraction
    gap: Fraction | None
    method: str


def resolve_method(config: RunConfig) -> str:
    if config.method is not None:
        return config.method
    return "ortho" if config.family == "custom" else "both"


def _recurrence_pairs(seq, n_max: int):
    """Yield (A_n * N_n, N_n), N_n = t_0 ... t_n, for n = 0 .. n_max.

    The recurrence's squared norms multiply to Q_n and its running sum A_n
    is P_n/Q_n, so this pair is the determinant route's (P_n, Q_n).
    """
    norm = Fraction(1)
    for state in ortho_states(seq, n_max):
        norm *= state.t[-1]
        yield state.partial_sum * norm, norm


def _walk(seq, n_max: int, method: str) -> list:
    """Records for n = 0 .. n_max from one route, or from both in lock step.

    At each n the recurrence runs before the determinant sweep. With "both"
    the two (P_n, Q_n) pairs must be equal, which checks A_n = P_n/Q_n and
    Q_n = t_0 ... t_n at once; the first difference raises EngineMismatch.
    Any abortive error carries the records finished before it.
    """
    ref_value = seq.reference.as_fraction() if seq.reference else None
    recurrence, sweep = _recurrence_pairs(seq, n_max), hankel_sweep(seq, n_max)
    routes = {"ortho": (recurrence,), "det": (sweep,), "both": (recurrence, sweep)}[method]

    records = []
    try:
        for n, pairs in enumerate(zip(*routes)):
            P, Q = pairs[-1]  # the determinants' pair whenever that route runs
            if pairs[0] != pairs[-1]:
                raise EngineMismatch(n, pairs[-1], pairs[0])
            value = P / Q
            gap = ref_value - value if ref_value is not None else None
            records.append(ApproximantRecord(n, P, Q, value, gap, method))
    except (PositivityViolation, NonPositiveQ, EngineMismatch, OrthogonalityLost,
            IndexOutOfRange) as exc:
        exc.records = records
        raise
    return records


def run_convergence(config: RunConfig) -> list:
    """Records for n = 0 .. n_max, in order."""
    seq = family_sequence(config.family, config.k, config.moments_file)
    return _walk(seq, config.n_max, resolve_method(config))


# ---------------------------------------------------------------------------
# rendering

def _table_cell(value: Fraction, exact: bool) -> str:
    text = format_rational(value)
    if not exact and len(text) > ELIDE_THRESHOLD:
        return "-"
    return text


def emit(records, format: str = "table", digits: int = DEFAULT_DIGITS,
         exact: bool = False, out: str | None = None) -> str:
    """Render records as table/csv/json text; optionally also write a file.

    ``digits`` sets the fractional digits of the decimal column (table and
    json); ``exact`` keeps long ratios in the table instead of eliding them.
    """
    if format == "table":
        lines = []
        for r in records:
            dec = rat_to_decimal(r.value, digits).text
            lines.append(f"{r.n} | {_table_cell(r.value, exact)} | {dec}")
        text = "\n".join(lines)
    elif format == "csv":
        lines = ["n,P,Q,value,gap"]
        for r in records:
            gap = format_rational(r.gap) if r.gap is not None else ""
            lines.append(
                f"{r.n},{format_rational(r.P)},{format_rational(r.Q)},"
                f"{format_rational(r.value)},{gap}"
            )
        text = "\n".join(lines)
    elif format == "json":
        rows = []
        for r in records:
            rows.append({
                "n": r.n,
                "P": format_rational(r.P),
                "Q": format_rational(r.Q),
                "value": format_rational(r.value),
                "decimal": rat_to_decimal(r.value, digits).text,
                "gap": format_rational(r.gap) if r.gap is not None else None,
                "method": r.method,
            })
        text = json.dumps(rows, indent=2)
    else:
        raise ValueError(f"unknown format: {format!r}")

    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# cross-validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    family: str
    checks: list = field(default_factory=list)
    violation: PositivityViolation | None = None

    @property
    def passed(self) -> bool:
        return self.violation is None and all(c.passed for c in self.checks)


def cross_validate(family: str, n_max: int, k: int | None = None,
                   moments_file: str | None = None) -> ValidationReport:
    """Run both engines in lock step and report the structural identities.

    The walk enforces engine agreement, Q_n equal to the product of squared
    norms and Q_n > 0 (one comparison of the two (P_n, Q_n) pairs per n).
    A failure of those, or of positive definiteness, is reported, not
    raised, and ends the report. Monotonicity and the bound below the
    reference decimal are then read off the records. The reference counts
    as correct to within one unit of its last digit, so the bound fails only
    at an approximant >= ref + 10**-d (d fractional digits); one in
    [ref, ref + 10**-d) passes, and the detail names the first such n. A
    recurrence polynomial that is not orthogonal to an earlier one raises
    OrthogonalityLost (the recurrence checks this at every step).
    """
    seq = family_sequence(family, k, moments_file)
    report = ValidationReport(family=seq.name)

    try:
        records = _walk(seq, n_max, "both")
    except PositivityViolation as exc:
        report.violation = exc
        report.checks.append(CheckResult(
            "positive-definite", False,
            f"squared norm fails at degree {exc.index}; positive through {exc.index - 1}",
        ))
        return report
    except NonPositiveQ as exc:
        report.checks.append(CheckResult(
            "positive-Q", False, f"Q_{exc.n} = {exc.value} is not positive"))
        return report
    except EngineMismatch as exc:
        report.checks.append(CheckResult(
            "engine-agreement", False, f"paths disagree first at n = {exc.n}"))
        return report

    monotone = all(a.value <= b.value for a, b in zip(records, records[1:]))
    for name, passed, detail in (
            ("engine-agreement", True, "determinant and recurrence paths equal"),
            ("norm-factorization", True, "Q_n equals the product of squared norms"),
            ("positive-Q", True, "Q_n > 0"),
            ("monotone", monotone, "approximants nondecreasing")):
        report.checks.append(CheckResult(name, passed, f"{detail} for n <= {n_max}"))

    if seq.reference is not None:
        stored = seq.reference.decimal
        ref = seq.reference.as_fraction()
        digits = len(stored.partition(".")[2])
        upper = ref + Fraction(1, 10 ** digits)
        below = all(r.value < upper for r in records)
        reached = next((r.n for r in records if r.value >= ref), None)
        detail = f"every approximant is strictly below {stored}"
        if below and reached is not None:
            detail = (f"every approximant is strictly below {rat_to_decimal(upper, digits)}, "
                      f"one unit above {stored} in its last digit; the first at or above "
                      f"{stored} is n = {reached}")
        report.checks.append(CheckResult("reference-bound", below, detail))

    return report
