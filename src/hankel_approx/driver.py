"""Convergence runs, engine cross-validation, and output rendering.

The driver walks n = 0 .. n_max for a moment sequence, producing one
ApproximantRecord per index. Each route is one pass over the moments: the
determinant sweep (``hankel_sweep``, a condensation table) and the
recurrence (``ortho_states``, a mixed-moment table). With
``method="both"`` the two run side by side and are compared at every
index; a disagreement aborts the run. Abortive errors
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
from .orthopoly import norm_product, ortho_states

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


def run_convergence(config: RunConfig) -> list:
    """Records for n = 0 .. n_max, in order."""
    seq = family_sequence(config.family, config.k, config.moments_file)
    method = resolve_method(config)
    ref_value = seq.reference.as_fraction() if seq.reference else None

    records = []
    states = ortho_states(seq, config.n_max) if method in ("ortho", "both") else None
    dets = hankel_sweep(seq, config.n_max) if method in ("det", "both") else None
    try:
        for n in range(config.n_max + 1):
            if states is not None:
                state = next(states)
            if dets is not None:
                P, Q = next(dets)
                if method == "both" and P / Q != state.partial_sum:
                    raise EngineMismatch(n, P / Q, state.partial_sum)
            else:
                Q = norm_product(state)
                P = state.partial_sum * Q
            value = P / Q
            records.append(ApproximantRecord(
                n=n,
                P=P,
                Q=Q,
                value=value,
                gap=ref_value - value if ref_value is not None else None,
                method=method,
            ))
    except (PositivityViolation, NonPositiveQ, EngineMismatch, OrthogonalityLost,
            IndexOutOfRange) as exc:
        exc.records = records
        raise
    return records


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
    n_max: int
    checks: list = field(default_factory=list)
    violation: PositivityViolation | None = None

    @property
    def passed(self) -> bool:
        return self.violation is None and all(c.passed for c in self.checks)


def cross_validate(family: str, n_max: int, k: int | None = None,
                   moments_file: str | None = None) -> ValidationReport:
    """Run both engines side by side and check the structural identities.

    Checks: per-n agreement of the two engines, Q_n equal to the product of
    squared norms, positivity of Q_n, monotonicity of the approximants, and
    the strict bound below the reference constant when one is known. A
    positive-definiteness failure is reported, not raised; a recurrence
    polynomial that is not orthogonal to an earlier one raises
    OrthogonalityLost (the recurrence checks this at every step).
    """
    seq = family_sequence(family, k, moments_file)
    report = ValidationReport(family=seq.name, n_max=n_max)

    det_P, det_Q, ortho_A, norm_prods = [], [], [], []
    dets = hankel_sweep(seq, n_max)
    try:
        for state in ortho_states(seq, n_max):
            P, Q = next(dets)
            det_P.append(P)
            det_Q.append(Q)
            ortho_A.append(state.partial_sum)
            norm_prods.append(norm_product(state))
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

    top = len(ortho_A) - 1

    mismatch = next(
        (n for n in range(top + 1) if det_P[n] / det_Q[n] != ortho_A[n]), None)
    report.checks.append(CheckResult(
        "engine-agreement",
        mismatch is None,
        f"determinant and recurrence paths equal for n <= {top}"
        if mismatch is None else f"paths disagree first at n = {mismatch}",
    ))

    bad_norm = next((n for n in range(top + 1) if det_Q[n] != norm_prods[n]), None)
    report.checks.append(CheckResult(
        "norm-factorization",
        bad_norm is None,
        f"Q_n equals the product of squared norms for n <= {top}"
        if bad_norm is None else f"factorization fails first at n = {bad_norm}",
    ))

    report.checks.append(CheckResult(
        "positive-Q", all(q > 0 for q in det_Q), f"Q_n > 0 for n <= {top}"))

    monotone = all(ortho_A[n] <= ortho_A[n + 1] for n in range(top))
    report.checks.append(CheckResult(
        "monotone", monotone, f"approximants nondecreasing for n <= {top}"))

    if seq.reference is not None:
        ref = seq.reference.as_fraction()
        below = all(a < ref for a in ortho_A)
        report.checks.append(CheckResult(
            "reference-bound", below,
            f"every approximant is strictly below {seq.reference.decimal}",
        ))

    return report
