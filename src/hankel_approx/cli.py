"""Command-line interface.

Exit codes: 0 all checks pass, 2 validation failure or usage error, 3
positivity violation, 4 I/O or parse error.
"""

import os
import re
import sys
from argparse import ArgumentParser, ArgumentTypeError

from .driver import FORMATS, cross_validate, render, walk
from .errors import (
    EXIT_IO,
    EXIT_POSITIVITY,
    EXIT_VALIDATION,
    IndexOutOfRange,
    ParseError,
    RunStopped,
    _brief,
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


def _integer(low, high=None):
    """An integer option's type, at least ``low`` and at most any ``high``,
    reading only [+-]?[0-9]+ as moment files do: int() also takes other
    scripts' digits, "_" separators and surrounding spaces."""
    bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"

    def convert(text):
        if re.fullmatch(r"[+-]?[0-9]+", text) is None:
            raise ArgumentTypeError(f"{_brief(repr(text))} is not a valid integer.")
        value = int(text)  # an argument's length is far below the int/str digit limit
        if value < low or (high is not None and value > high):
            raise ArgumentTypeError(f"{_brief(value)} is not in the range {bounds}.")
        return value

    return convert


def _exit(message, code: int):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


FAMILIES = ("gamma", "gompertz", "zeta", "factorial", "custom")  # --family, in help order


def _sequence(args):
    """The moment sequence the family options name: the one place that maps
    a --family name to its builder.

    A combination of options that does not fit the family is a usage error
    (exit 2); a moment file that cannot be read or parsed exits 4.
    """
    family, error = args.family, args.parser.error  # error() exits 2
    if family == "zeta" and args.k is None:
        error("--family zeta requires --k")
    if family != "zeta" and args.k is not None:
        error("--k only applies to --family zeta")
    if family != "custom":
        if args.moments_file is not None:
            error("--moments-file only applies to --family custom")
        if family == "zeta":
            return zeta_sequence(args.k)
        return {"gamma": gamma_sequence, "gompertz": gompertz_sequence,
                "factorial": factorial_sequence}[family]()
    if not args.moments_file:
        error("--family custom requires --moments-file")
    try:
        return load_moments(args.moments_file)
    except (ParseError, OSError) as exc:
        _exit(exc, EXIT_IO)


def _exit_stopped(exc: RunStopped):
    """Report a stopped run and exit with its code; a moment file too short
    for --n-max also names the largest n it supports."""
    message = str(exc)
    if isinstance(exc, IndexOutOfRange):
        top = (exc.available - 2) // 2  # n needs a_1 .. a_{2n+2}
        supported = f"n <= {top}" if top >= 0 else "no n"
        message += f"; the moment file supports {supported}"
    _exit(message, exc.exit_code)


def approx(args):
    """Compute approximants P_n/Q_n for n = 0 .. N_MAX."""
    seq = _sequence(args)
    try:
        for text in render(walk(seq, args.n_max), args.fmt, args.digits):
            sys.stdout.write(text)
            sys.stdout.flush()  # a pipe or file is block-buffered: send each row now
    except RunStopped as exc:
        _exit_stopped(exc)


def moments(args):
    """Print the first COUNT moments of a family.

    JSON output uses the moment-file schema, so it can be fed back through
    --moments-file.
    """
    seq = _sequence(args)
    values, short = seq.prefix(args.count)
    if short is not None:
        _exit(short, EXIT_IO)
    if args.fmt == "json":
        import json  # here, so that csv runs never load it

        doc = {"name": seq.name, "a": [format_rational(v) for v in values]}
        if seq.reference is not None:
            doc["reference"] = seq.reference.decimal
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(["n,a"] + [f"{n},{format_rational(v)}"
                                   for n, v in enumerate(values, start=1)]))


def validate(args):
    """Cross-check the determinant and recurrence engines."""
    seq = _sequence(args)
    try:
        checks = cross_validate(seq, args.n_max)
    except RunStopped as exc:
        _exit_stopped(exc)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    failed = [name for name, passed, _ in checks if not passed]
    if failed == ["positive-definite"]:
        sys.exit(EXIT_POSITIVITY)
    if failed:
        sys.exit(EXIT_VALIDATION)


def _parser(**kwargs) -> ArgumentParser:
    """A parser that takes options only spelled in full (--fam is an error)
    and has --help but no -h."""
    parser = ArgumentParser(allow_abbrev=False, add_help=False, **kwargs)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _command(commands, run) -> ArgumentParser:
    """The subcommand parser that calls ``run(args)``, with the family options."""
    sub = commands.add_parser(run.__name__, usage="%(prog)s [OPTIONS]",
                              help=run.__doc__.partition("\n")[0], description=run.__doc__)
    sub.set_defaults(run=run, parser=sub)
    sub.add_argument("--family", choices=FAMILIES, required=True,
                     help="Moment family; custom reads --moments-file.")
    sub.add_argument("--k", type=_integer(2, MAX_CLI_K),
                     help=f"Exponent for the zeta family (2 <= k <= {MAX_CLI_K}).")
    sub.add_argument("--moments-file", metavar="PATH", help="Moment file for --family custom.")
    return sub


def main(argv=None):
    """Run the command line on ``argv`` (default sys.argv[1:]); usage errors exit 2."""
    parser = _parser(prog="hankel-approx",
                     description="Exact rational approximants from moment sequences.")
    commands = parser.add_subparsers(required=True, metavar="COMMAND", parser_class=_parser)
    sub = _command(commands, approx)
    sub.add_argument("--n-max", type=_integer(0), required=True,
                     help="Highest approximant index to compute.")
    # perfbench's factorial-det still passes --method det; ROADMAP items 3a and 4 remove the option.
    sub.add_argument("--method", choices=("det", "both"), default="both",
                     help="Ignored: every run checks the exact recurrence mod 2^61 - 1.")
    sub.add_argument("--digits", type=_integer(1, MAX_DIGITS), default=DEFAULT_DIGITS,
                     help=f"Decimal places, 1<=x<={MAX_DIGITS} (default: {DEFAULT_DIGITS}).")
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="table",
                     help="Output format (default: table).")
    sub = _command(commands, moments)
    sub.add_argument("--count", type=_integer(1), required=True,
                     help="How many moments a_1 .. a_count to emit.")
    sub.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json",
                     help="Output format (default: json).")
    sub = _command(commands, validate)
    sub.add_argument("--n-max", type=_integer(0), required=True, help="Highest index to validate.")
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # named by the command's parser, with its usage line
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    closed = "stdout was closed before the output was complete"
    if sys.stdout is None:  # started with no stdout (`>&-`): print would drop every row
        _exit(closed, EXIT_IO)
    try:
        try:
            args.run(args)
        finally:  # flush here, where a closed pipe is caught, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`): send what is still buffered to
        # os.devnull, so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _exit(closed, EXIT_IO)


# perfbench/run.py still calls click's entry point; ROADMAP item 3 removes this alias.
main.main = lambda args=None, prog_name=None, standalone_mode=True: main(args)


if __name__ == "__main__":
    main()
