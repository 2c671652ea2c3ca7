from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hankel_approx
from hankel_approx.errors import ParseError, ZeroDenominator
from hankel_approx.exactnum import (
    DEFAULT_DIGITS,
    format_rational,
    parse_decimal,
    parse_rational,
    rat_to_decimal,
)

from .oracles import harmonic


@pytest.mark.parametrize(
    "text,expected",
    [
        ("9/41", Fraction(9, 41)),
        ("-3", Fraction(-3)),
        ("0", Fraction(0)),
        ("12/8", Fraction(3, 2)),
        ("-10/4", Fraction(-5, 2)),
        ("  7/2  ", Fraction(7, 2)),
    ],
)
def test_parse_rational(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1.5", "1/2/3", "1/-2", "+3", "1 /2"])
def test_parse_rational_rejects(text):
    with pytest.raises(ParseError):
        parse_rational(text)


def test_parse_rational_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_rational("1/0")


def test_format_rational():
    assert format_rational(Fraction(9, 41)) == "9/41"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(0)) == "0"


def test_parse_format_roundtrip_random():
    rng = random.Random(20240917)
    for _ in range(1000):
        r = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert parse_rational(format_rational(r)) == r


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0.5772156649", Fraction(5772156649, 10**10)),
        ("-1.25", Fraction(-5, 4)),
        ("2.0", Fraction(2)),
    ],
)
def test_parse_decimal(text, expected):
    assert parse_decimal(text) == expected


@pytest.mark.parametrize("text", ["5", ".5", "1.", "1e3", "1.2.3", ""])
def test_parse_decimal_rejects(text):
    with pytest.raises(ParseError):
        parse_decimal(text)


def test_rat_to_decimal_known_values():
    assert rat_to_decimal(Fraction(9, 41), 10) == "0.2195121951"
    # 135/89 = 1.51685393258...; the 10th digit rounds the 9th up
    assert rat_to_decimal(Fraction(135, 89), 9) == "1.516853933"
    assert rat_to_decimal(Fraction(1, 2), 1) == "0.5"
    assert rat_to_decimal(Fraction(0), 3) == "0.000"
    assert rat_to_decimal(Fraction(1234, 10), 2) == "123.40"


def test_rat_to_decimal_half_rounds_away_from_zero():
    assert rat_to_decimal(Fraction(1, 20), 1) == "0.1"
    assert rat_to_decimal(Fraction(-1, 20), 1) == "-0.1"


def test_rat_to_decimal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rat_to_decimal(Fraction(1, 2), 0)


def test_rat_to_decimal_default_digits():
    assert len(rat_to_decimal(Fraction(1, 3)).partition(".")[2]) == DEFAULT_DIGITS


def test_rat_to_decimal_roundtrips_through_parse_decimal():
    d = rat_to_decimal(Fraction(41, 36), 6)
    assert isinstance(d, str) and d == "1.138889"
    assert parse_decimal(d) == Fraction(1138889, 10**6)


def test_rendering_error_bound_random():
    # Rounding must land within half a unit of the last printed digit.
    rng = random.Random(77003)
    for _ in range(1000):
        r = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        digits = rng.randint(1, 12)
        ulp = Fraction(1, 10**digits)
        rounded = parse_decimal(rat_to_decimal(r, digits))
        assert abs(rounded - r) <= ulp / 2


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)
    with pytest.raises(ValueError):
        harmonic(0)


def test_huge_integers_render():
    # Determinants overflow CPython's default int<->str conversion cap;
    # importing the package must lift it.
    text = format_rational(Fraction(10**6000 + 1, 3))
    assert text.endswith("/3")
    assert parse_rational(text) == Fraction(10**6000 + 1, 3)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no int/str conversion limit")
@pytest.mark.parametrize("start,after", [(5000, 2_000_000), (0, 0), (4_000_000, 4_000_000)])
def test_import_raises_int_str_limit(start, after):
    # Importing the package raises a lower limit to 2,000,000 digits and
    # leaves an unlimited (0) or larger one alone. Run in a fresh
    # interpreter, since the limit is process-global.
    src = str(Path(hankel_approx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; before = sys.get_int_max_str_digits(); import hankel_approx; "
            "print(before, sys.get_int_max_str_digits())")
    proc = subprocess.run(
        [sys.executable, "-X", f"int_max_str_digits={start}", "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == [str(start), str(after)]
