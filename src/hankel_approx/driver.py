"""Convergence runs, engine cross-validation, and output rendering.

The driver walks n = 0 .. n_max for a moment sequence, producing one
ApproximantRecord per index. Each route is one pass over the moments: the
determinant sweep (``hankel_sweep``, a condensation table) and the
recurrence (``ortho_sweep``, a mixed-moment table). One walk serves both
``approx`` and ``validate``: the two routes advance in lock step, and at
every index the recurrence's (A_n N_n, N_n), where N_n is the running
product of its squared norms, must equal the determinants' (P_n, Q_n); a
disagreement aborts the run. ``validate`` compares the two pairs exactly.
``approx`` compares them mod the prime CHECK_PRIME = 2^61 - 1 and runs the
determinant table mod that prime only (``hankel_residues``), so its cost
is close to the recurrence's alone; a wrong exact pair escapes it only if
the prime divides the numerators of both differences to the true pair. A
row the residues cannot form (a pivot or moment denominator that the
prime divides) and every later one are compared exactly.

``walk`` yields that walk's records, which ``approx`` prints as they come.
``cross_validate`` runs it with exact comparison and returns the check
lines that ``validate`` prints, as (name, passed, detail) tuples. Both
take a MomentSequence, which ``cli._sequence`` builds.

Abortive errors (EngineMismatch, OrthogonalityLost, PositivityViolation,
IndexOutOfRange) are RunStopped errors, raised after the last record the
walk yielded, so a caller that keeps the rows it was given can still
report partial progress. Both routes stop at the same first degree with
t_n <= 0 and the same PositivityViolation; the recurrence meets it first,
so the exact determinant sweep's subclass NonPositiveQ reaches a caller
only when that sweep is wrong.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import islice

from .errors import EngineMismatch, NonPositiveQ, PositivityViolation, RunStopped
from .exactnum import DEFAULT_DIGITS, format_rational, rat_to_decimal
from .hankel import hankel_residues, hankel_sweep, residue
from .moments import MomentSequence
from .orthopoly import ortho_sweep

ELIDE_THRESHOLD = 40  # table cells longer than this print as "-"

FORMATS = ("table", "csv", "json")

# approx's default check compares both routes mod this fixed (Mersenne) prime.
CHECK_PRIME = 2**61 - 1

# One convergence row: index n, exact P_n and Q_n, their ratio ``value`` and
# the ``gap`` to the target (None without a reference); both routes give it alike.
ApproximantRecord = namedtuple("ApproximantRecord", "n P Q value gap")


def _determinant_checks(seq, n_max: int, exact: bool):
    """Yield (modulus, pair) for n = 0 .. n_max: the determinants' (P_n, Q_n)
    mod CHECK_PRIME, or exactly (modulus None).

    The residues run until a row cannot be formed mod the prime; from that
    n on, and throughout with ``exact``, the pairs come from the exact sweep.
    """
    done = 0
    if not exact:
        p = CHECK_PRIME
        for pair in hankel_residues(seq, n_max, p):
            yield p, pair
            done += 1
    for pair in islice(hankel_sweep(seq, n_max), done, None):
        yield None, pair


def walk(seq: MomentSequence, n_max: int, *, exact: bool = False):
    """Yield the records for n = 0 .. n_max, in order, from both routes in
    lock step.

    The recurrence produces every record, and at each n its (A_n N_n, N_n)
    must equal the determinants' (P_n, Q_n), which checks A_n = P_n/Q_n and
    Q_n = t_0 ... t_n at once; the first difference raises EngineMismatch.
    The recurrence runs first at each n, so its errors come before anything
    from the determinant side. With ``exact`` the pairs are compared
    exactly, otherwise mod CHECK_PRIME (see above). An abortive error is
    raised after the last record that both routes formed. A negative
    ``n_max`` raises ValueError at the first ``next()``.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    ref_value = seq.reference.as_fraction() if seq.reference else None
    rows = zip(ortho_sweep(seq, n_max), _determinant_checks(seq, n_max, exact))
    for n, (pair, (modulus, expected)) in enumerate(rows):
        seen = pair if modulus is None else tuple(residue(x, modulus) for x in pair)
        if seen != expected:
            raise EngineMismatch(n, expected, seen, modulus)
        P, Q = pair
        value = P / Q
        gap = ref_value - value if ref_value is not None else None
        yield ApproximantRecord(n, P, Q, value, gap)


# ---------------------------------------------------------------------------
# rendering

def _table_cell(value: Fraction) -> str:
    text = format_rational(value)
    return "-" if len(text) > ELIDE_THRESHOLD else text


def render(records, format: str = "table", digits: int = DEFAULT_DIGITS):
    """Yield each record's text, newline included, as table/csv/json.

    ``digits`` sets the fractional digits of the decimal column (table and
    json); the table elides long ratios, which csv and json print whole.
    No rows give no text; a RunStopped from ``records`` is raised again
    after the rows before it, with a json array closed.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format: {format!r}")
    if format == "json":
        import json  # here, so that table and csv runs never load it
    lead, sep = {"csv": ("n,P,Q,value,gap\n", ""), "json": ("[\n", ",\n")}.get(format, ("", ""))
    stop = None
    try:
        for r in records:
            if format == "table":
                text = f"{r.n} | {_table_cell(r.value)} | {rat_to_decimal(r.value, digits)}\n"
            elif format == "csv":
                text = ",".join([str(r.n), *map(format_rational, (r.P, r.Q, r.value)),
                                 format_rational(r.gap) if r.gap is not None else ""]) + "\n"
            else:  # one element of the array, without its "[\n" and "\n]"
                text = json.dumps([{
                    "n": r.n,
                    "P": format_rational(r.P),
                    "Q": format_rational(r.Q),
                    "value": format_rational(r.value),
                    "decimal": rat_to_decimal(r.value, digits),
                    "gap": format_rational(r.gap) if r.gap is not None else None,
                }], indent=2)[2:-2]
            yield lead + text
            lead = sep
    except RunStopped as exc:  # not a finally: a generator closed early must not yield
        stop = exc
    if lead == ",\n":  # close the json array that a row opened
        yield "\n]\n"
    if stop is not None:
        raise stop


# ---------------------------------------------------------------------------
# cross-validation

def cross_validate(seq: MomentSequence, n_max: int) -> list[tuple[str, bool, str]]:
    """Run both engines in lock step; return the check lines in print order
    as (name, passed, detail) tuples.

    The walk enforces engine agreement, Q_n equal to the product of squared
    norms and Q_n > 0 (one comparison of the two (P_n, Q_n) pairs per n).
    A failure of those, or of positive definiteness, is not raised: it is
    the one check returned. Otherwise monotonicity and the bound below the
    reference decimal are read off the records. The reference counts
    as correct to within one unit of its last digit, so the bound fails only
    at an approximant >= ref + 10**-d (d fractional digits); one in
    [ref, ref + 10**-d) passes, and the detail names the first such n. A
    recurrence polynomial that is not orthogonal to an earlier one raises
    OrthogonalityLost (the recurrence checks this at every step).
    """
    try:
        records = list(walk(seq, n_max, exact=True))
    except NonPositiveQ as exc:  # the recurrence passed n first: the table is at fault
        return [("positive-Q", False, str(exc))]
    except PositivityViolation as exc:
        positive = f"positive through {exc.index - 1}" if exc.index else "positive at no degree"
        return [("positive-definite", False,
                 f"squared norm fails at degree {exc.index}; {positive}")]
    except EngineMismatch as exc:
        return [("engine-agreement", False, f"paths disagree first at n = {exc.n}")]

    monotone = all(a.value <= b.value for a, b in zip(records, records[1:]))
    checks = [(name, passed, f"{detail} for n <= {n_max}") for name, passed, detail in (
        ("engine-agreement", True, "determinant and recurrence paths equal"),
        ("norm-factorization", True, "Q_n equals the product of squared norms"),
        ("positive-Q", True, "Q_n > 0"),
        ("monotone", monotone, "approximants nondecreasing"))]

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
        checks.append(("reference-bound", below, detail))
    return checks
