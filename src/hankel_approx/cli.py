"""Command-line interface.

Exit codes: 0 all checks pass, 2 validation failure, 3 positivity
violation, 4 I/O or parse error.
"""

from __future__ import annotations

import json
import re
import sys

import click

from .driver import FORMATS, METHODS, cross_validate, emit, run_convergence
from .errors import (
    EXIT_IO,
    EXIT_POSITIVITY,
    EXIT_VALIDATION,
    IndexOutOfRange,
    ParseError,
    RunStopped,
)
from .exactnum import DEFAULT_DIGITS, MAX_DIGITS, format_rational
from .moments import (
    factorial_sequence,
    gamma_sequence,
    gompertz_sequence,
    load_moments,
    zeta_sequence,
)

# CLI-only guard: (i+1)^k growth makes huge k useless interactively.
MAX_CLI_K = 64


class _Integer(click.IntRange):
    """click's integer type, a range when bounded, reading only [+-]?[0-9]+
    as moment files do: click's int() also takes other scripts' digits,
    "_" separators and surrounding spaces."""

    def __init__(self, min=None, max=None):
        super().__init__(min, max)
        if min is None and max is None:
            self.name = "integer"  # as click.INT, and with no range in --help

    def _describe_range(self) -> str:
        return "" if self.name == "integer" else super()._describe_range()

    def convert(self, value, param, ctx):
        if isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value) is None:
            self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)
        return super().convert(value, param, ctx)


def _exit(message, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


FAMILIES = ("gamma", "gompertz", "zeta", "factorial", "custom")  # --family, in help order


def _sequence(family, k, moments_file):
    """The moment sequence the family options name: the one place that maps
    a --family name to its builder.

    A combination of options that does not fit the family is a usage error
    (exit 2); a moment file that cannot be read or parsed exits 4.
    """
    if family == "zeta":
        if k is None:
            raise click.UsageError("--family zeta requires --k")
        if not 2 <= k <= MAX_CLI_K:
            raise click.UsageError(f"--k must be in [2, {MAX_CLI_K}]")
    elif k is not None:
        raise click.UsageError("--k only applies to --family zeta")
    if family != "custom":
        if moments_file is not None:
            raise click.UsageError("--moments-file only applies to --family custom")
        if family == "zeta":
            return zeta_sequence(k)
        return {"gamma": gamma_sequence, "gompertz": gompertz_sequence,
                "factorial": factorial_sequence}[family]()
    if not moments_file:
        raise click.UsageError("--family custom requires --moments-file")
    try:
        return load_moments(moments_file)
    except (ParseError, OSError) as exc:
        _exit(exc, EXIT_IO)


def family_options(fn):
    fn = click.option("--moments-file", type=click.Path(), default=None,
                      help="Moment file for --family custom.")(fn)
    fn = click.option("--family", type=click.Choice(FAMILIES), required=True,
                      help="Moment family; custom reads --moments-file.")(fn)
    fn = click.option("--k", type=_Integer(), default=None,
                      help=f"Exponent for the zeta family (2 <= k <= {MAX_CLI_K}).")(fn)
    return fn


def _exit_stopped(exc: RunStopped):
    """Report a stopped run and exit with its code; a moment file too short
    for --n-max also names the largest n it supports."""
    message = str(exc)
    if isinstance(exc, IndexOutOfRange):
        top = (exc.available - 2) // 2  # n needs a_1 .. a_{2n+2}
        supported = f"n <= {top}" if top >= 0 else "no n"
        message += f"; the moment file supports {supported}"
    _exit(message, exc.exit_code)


@click.group()
def main():
    """Exact rational approximants from moment sequences."""


@main.command()
@family_options
@click.option("--n-max", type=_Integer(min=0), required=True,
              help="Highest approximant index to compute.")
@click.option("--method", type=click.Choice(METHODS), default="both",
              show_default=True,
              help="det: exact determinants, unchecked; both: exact recurrence, "
                   "checked against the determinants mod 2^61 - 1.")
@click.option("--digits", type=_Integer(min=1, max=MAX_DIGITS),
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
    seq = _sequence(family, k, moments_file)
    try:
        records, stop = run_convergence(seq, n_max, method), None
    except RunStopped as exc:
        # print and write the rows before the stop, unless the routes disagree (exit 2)
        records, stop = (None if exc.exit_code == EXIT_VALIDATION else exc.records), exc
    if records:
        text = emit(records, fmt, digits, exact)
        if out is not None:
            try:
                with open(out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                _exit(exc, EXIT_IO)
        click.echo(text)
    if stop is not None:
        _exit_stopped(stop)


@main.command()
@family_options
@click.option("--count", type=_Integer(min=1), required=True,
              help="How many moments a_1 .. a_count to emit.")
@click.option("--format", "fmt", type=click.Choice(("json", "csv")),
              default="json", show_default=True)
def moments(family, k, count, fmt, moments_file):
    """Print the first COUNT moments of a family.

    JSON output uses the moment-file schema, so it can be fed back through
    --moments-file.
    """
    seq = _sequence(family, k, moments_file)
    try:
        values = seq.moments(count)
    except IndexOutOfRange as exc:
        _exit(exc, EXIT_IO)
    if fmt == "json":
        doc = {"name": seq.name, "a": [format_rational(v) for v in values]}
        if seq.reference is not None:
            doc["reference"] = seq.reference.decimal
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo("\n".join(["n,a"] + [f"{n},{format_rational(v)}"
                                         for n, v in enumerate(values, start=1)]))


@main.command()
@family_options
@click.option("--n-max", type=_Integer(min=0), required=True,
              help="Highest index to validate.")
def validate(family, k, n_max, moments_file):
    """Cross-check the determinant and recurrence engines."""
    seq = _sequence(family, k, moments_file)
    try:
        checks = cross_validate(seq, n_max)
    except RunStopped as exc:
        _exit_stopped(exc)
    for name, passed, detail in checks:
        click.echo(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed == ["positive-definite"]:
        sys.exit(EXIT_POSITIVITY)
    if failed:
        sys.exit(EXIT_VALIDATION)


if __name__ == "__main__":
    main()
