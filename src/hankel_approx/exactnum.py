"""Exact rational text: parsing, formatting, and decimal rendering.

Every value in the computational core is an arbitrary-precision rational
(``fractions.Fraction``): always in lowest terms, denominator positive,
zero canonicalized to 0/1. No floating point enters any computation;
Hankel determinants are far too ill-conditioned for that.

Rational text grammar (CLI output and moment files): optional ``-``, a
digit string, optionally ``/`` followed by a digit string denoting a
positive denominator. ``9/41``, ``-3``, ``0`` are all valid.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ParseError

# Determinant values and row-cleared moments reach tens of thousands of
# digits; CPython caps int<->str conversion at 4300 digits by default.
if hasattr(sys, "set_int_max_str_digits"):
    if 0 < sys.get_int_max_str_digits() < 2_000_000:
        sys.set_int_max_str_digits(2_000_000)

DEFAULT_DIGITS = 10
# The ceiling on --digits and on a moment file's reference decimal: str()
# and int() of a digit string take time quadratic in its length in
# CPython, so longer requests are refused before any conversion.
MAX_DIGITS = 100_000

_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+))?\Z")
_DECIMAL_RE = re.compile(r"(-?)(\d+)\.(\d+)\Z")


def _to_int(digits: str) -> int:
    # Only the int/str digit limit can fail on a digit string; too long to echo.
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number has more than {sys.get_int_max_str_digits()} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse the rational text grammar ("9/41", "-3", "0")."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a rational: {text!r}")
    sign, num, den = m.groups()
    den = _to_int(den) if den is not None else 1
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    value = Fraction(_to_int(num), den)
    return -value if sign else value


def format_rational(r: Fraction) -> str:
    """Render a rational in the text grammar (no slash when the value is integral)."""
    return str(Fraction(r))


def parse_decimal(text: str) -> Fraction:
    """Read a fixed-point decimal string ("0.5772156649") as an exact rational."""
    m = _DECIMAL_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a fixed-point decimal: {text!r}")
    sign, ipart, fpart = m.groups()
    value = Fraction(_to_int(ipart + fpart), 10 ** len(fpart))
    return -value if sign else value


def rat_to_decimal(r: Fraction, digits: int = DEFAULT_DIGITS) -> str:
    """Render a rational as fixed-point text with exactly `digits` fractional
    digits ("-1.25"), by exact long division.

    Rounds half away from zero: the magnitude goes up when the remainder is
    at least half a unit in the last place, so the printed value differs
    from ``r`` by at most half of 10**-digits.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    r = Fraction(r)
    sign = "-" if r < 0 else ""
    mag = -r if r < 0 else r
    units, rem = divmod(mag.numerator * 10 ** digits, mag.denominator)
    if 2 * rem >= mag.denominator:
        units += 1
    s = str(units).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"

