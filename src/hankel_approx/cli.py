"""Command-line interface.

Exit codes: 0 all checks pass, 2 validation failure, 3 positivity
violation, 4 I/O or parse error.
"""

from __future__ import annotations

import json
import sys

import click

from .driver import (
    EXIT_IO,
    EXIT_POSITIVITY,
    EXIT_VALIDATION,
    FORMATS,
    METHODS,
    cross_validate,
    emit,
    run_convergence,
)
from .errors import (
    EngineMismatch,
    IndexOutOfRange,
    NonPositiveQ,
    OrthogonalityLost,
    ParseError,
    PositivityViolation,
)
from .exactnum import DEFAULT_DIGITS, format_rational
from .moments import FAMILIES, family_sequence

# CLI-only guard: (i+1)^k growth makes huge k useless interactively.
MAX_CLI_K = 64


def family_options(fn):
    fn = click.option("--family", type=click.Choice(FAMILIES), required=True,
                      help="Moment family; custom reads --moments-file.")(fn)
    fn = click.option("--k", type=int, default=None,
                      help="Exponent for the zeta family (2 <= k <= 64).")(fn)
    return fn


def _check_family_args(family, k, moments_file=None):
    if family == "zeta":
        if k is None:
            raise click.UsageError("--family zeta requires --k")
        if not 2 <= k <= MAX_CLI_K:
            raise click.UsageError(f"--k must be in [2, {MAX_CLI_K}]")
    elif k is not None:
        raise click.UsageError("--k only applies to --family zeta")
    if family == "custom" and not moments_file:
        raise click.UsageError("--family custom requires --moments-file")


@click.group()
def main():
    """Exact rational approximants from moment sequences."""


@main.command()
@family_options
@click.option("--n-max", type=click.IntRange(min=0), required=True,
              help="Highest approximant index to compute.")
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Engine; defaults to both for built-ins, ortho for custom.")
@click.option("--digits", type=click.IntRange(min=1), default=DEFAULT_DIGITS,
              show_default=True,
              help="Fractional digits in the decimal column.")
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default="table", show_default=True)
@click.option("--exact", is_flag=True,
              help="Print full rationals in table format, however large.")
@click.option("--moments-file", type=click.Path(), default=None,
              help="Moment file for --family custom.")
@click.option("--out", type=click.Path(), default=None,
              help="Also write the rendered output to this path.")
def approx(family, k, n_max, method, digits, fmt, exact, moments_file, out):
    """Compute approximants P_n/Q_n for n = 0 .. N-MAX."""
    _check_family_args(family, k, moments_file)
    try:
        records = run_convergence(family, n_max, k, method, moments_file)
    except (ParseError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except IndexOutOfRange as exc:
        if exc.records:
            click.echo(emit(exc.records, fmt, digits, exact))
        top = (exc.available - 2) // 2  # n needs a_1 .. a_{2n+2}
        supported = f"n <= {top}" if top >= 0 else "no n"
        click.echo(f"error: {exc}; the moment file supports {supported}", err=True)
        sys.exit(EXIT_IO)
    except (PositivityViolation, NonPositiveQ) as exc:
        if exc.records:
            click.echo(emit(exc.records, fmt, digits, exact))
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_POSITIVITY)
    except (EngineMismatch, OrthogonalityLost) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    try:
        click.echo(emit(records, fmt, digits, exact, out))
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)


@main.command()
@family_options
@click.option("--count", type=click.IntRange(min=1), required=True,
              help="How many moments a_1 .. a_count to emit.")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")),
              default="json", show_default=True)
@click.option("--moments-file", type=click.Path(), default=None,
              help="Moment file for --family custom.")
def moments(family, k, count, fmt, moments_file):
    """Print the first COUNT moments of a family.

    JSON output uses the moment-file schema, so it can be fed back through
    --moments-file.
    """
    _check_family_args(family, k, moments_file)
    try:
        seq = family_sequence(family, k, moments_file)
        values = seq.moments(count)
    except (ParseError, IndexOutOfRange, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    if fmt == "json":
        doc = {"name": seq.name, "a": [format_rational(v) for v in values]}
        if seq.reference is not None:
            doc["reference"] = seq.reference.decimal
        click.echo(json.dumps(doc, indent=2))
    else:
        lines = ["n,a"] + [
            f"{n},{format_rational(v)}" for n, v in enumerate(values, start=1)
        ]
        click.echo("\n".join(lines))


@main.command()
@family_options
@click.option("--n-max", type=click.IntRange(min=0), required=True,
              help="Highest index to validate.")
@click.option("--moments-file", type=click.Path(), default=None,
              help="Moment file for --family custom.")
def validate(family, k, n_max, moments_file):
    """Cross-check the determinant and recurrence engines."""
    _check_family_args(family, k, moments_file)
    try:
        report = cross_validate(family, n_max, k=k, moments_file=moments_file)
    except (ParseError, IndexOutOfRange, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    except OrthogonalityLost as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"{status} {check.name}: {check.detail}")
    if report.violation is not None:
        sys.exit(EXIT_POSITIVITY)
    if not report.passed:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
