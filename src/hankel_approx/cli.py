"""Command-line interface.

Exit codes: 0 all checks pass, 2 validation failure, 3 positivity
violation, 4 I/O or parse error.
"""

from __future__ import annotations

import json
import sys

import click

from .driver import FORMATS, METHODS, cross_validate, emit, run_convergence
from .errors import (
    EngineMismatch,
    IndexOutOfRange,
    NonPositiveQ,
    OrthogonalityLost,
    ParseError,
    PositivityViolation,
)
from .exactnum import DEFAULT_DIGITS, MAX_DIGITS, format_rational
from .moments import FAMILIES, family_sequence

EXIT_VALIDATION = 2
EXIT_POSITIVITY = 3
EXIT_IO = 4

# CLI-only guard: (i+1)^k growth makes huge k useless interactively.
MAX_CLI_K = 64


def family_options(fn):
    fn = click.option("--moments-file", type=click.Path(), default=None,
                      help="Moment file for --family custom.")(fn)
    fn = click.option("--family", type=click.Choice(FAMILIES), required=True,
                      help="Moment family; custom reads --moments-file.")(fn)
    fn = click.option("--k", type=int, default=None,
                      help="Exponent for the zeta family (2 <= k <= 64).")(fn)
    return fn


def _check_family_args(family, k, moments_file):
    if family == "zeta":
        if k is None:
            raise click.UsageError("--family zeta requires --k")
        if not 2 <= k <= MAX_CLI_K:
            raise click.UsageError(f"--k must be in [2, {MAX_CLI_K}]")
    elif k is not None:
        raise click.UsageError("--k only applies to --family zeta")
    if family == "custom" and not moments_file:
        raise click.UsageError("--family custom requires --moments-file")
    if family != "custom" and moments_file is not None:
        raise click.UsageError("--moments-file only applies to --family custom")


def _exit(message, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _exit_short_file(exc: IndexOutOfRange):
    """Report a moment file too short for --n-max, naming the largest n it supports."""
    top = (exc.available - 2) // 2  # n needs a_1 .. a_{2n+2}
    supported = f"n <= {top}" if top >= 0 else "no n"
    _exit(f"{exc}; the moment file supports {supported}", EXIT_IO)


@click.group()
def main():
    """Exact rational approximants from moment sequences."""


@main.command()
@family_options
@click.option("--n-max", type=click.IntRange(min=0), required=True,
              help="Highest approximant index to compute.")
@click.option("--method", type=click.Choice(METHODS), default="both",
              show_default=True,
              help="det: exact determinants, unchecked; both: exact recurrence, "
                   "checked against the determinants mod 2^61 - 1.")
@click.option("--digits", type=click.IntRange(min=1, max=MAX_DIGITS),
              default=DEFAULT_DIGITS, show_default=True,
              help="Fractional digits in the decimal column.")
@click.option("--format", "fmt", type=click.Choice(FORMATS),
              default="table", show_default=True)
@click.option("--exact", is_flag=True,
              help="Print full rationals in table format, however large.")
@click.option("--out", type=click.Path(), default=None,
              help="Also write the rendered output to this path.")
def approx(family, k, n_max, method, digits, fmt, exact, moments_file, out):
    """Compute approximants P_n/Q_n for n = 0 .. N-MAX."""
    _check_family_args(family, k, moments_file)
    try:
        records, stop = run_convergence(family, n_max, k, method, moments_file), None
    except (ParseError, OSError) as exc:
        _exit(exc, EXIT_IO)
    except (EngineMismatch, OrthogonalityLost) as exc:
        _exit(exc, EXIT_VALIDATION)
    except (IndexOutOfRange, PositivityViolation, NonPositiveQ) as exc:
        records, stop = exc.records, exc  # print and write the rows before the stop
    if records:
        text = emit(records, fmt, digits, exact)
        if out is not None:
            try:
                with open(out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                _exit(exc, EXIT_IO)
        click.echo(text)
    if isinstance(stop, IndexOutOfRange):
        _exit_short_file(stop)
    if stop is not None:
        _exit(stop, EXIT_POSITIVITY)


@main.command()
@family_options
@click.option("--count", type=click.IntRange(min=1), required=True,
              help="How many moments a_1 .. a_count to emit.")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")),
              default="json", show_default=True)
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
        _exit(exc, EXIT_IO)
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
def validate(family, k, n_max, moments_file):
    """Cross-check the determinant and recurrence engines."""
    _check_family_args(family, k, moments_file)
    try:
        checks = cross_validate(family, n_max, k=k, moments_file=moments_file)
    except (ParseError, OSError) as exc:
        _exit(exc, EXIT_IO)
    except IndexOutOfRange as exc:
        _exit_short_file(exc)
    except OrthogonalityLost as exc:
        _exit(exc, EXIT_VALIDATION)
    for name, passed, detail in checks:
        click.echo(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed == ["positive-definite"]:
        sys.exit(EXIT_POSITIVITY)
    if failed:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
