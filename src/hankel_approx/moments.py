"""Exact moment sequences a_n = L(e_n) for the built-in linear functionals.

Four families ship with the package, each given by a closed-form sum that
evaluates to an exact rational (the defining integrals are used only as
independent oracles in the test suite):

* ``gamma``     -- target Euler-Mascheroni constant;
                   a_n = (n-1)! * sum_{i=0..n} C(n,i) (-1)^i (n-2i-1)/(i+1)^(n+1)
* ``gompertz``  -- target Euler-Gompertz constant;
                   a_n = sum_{i=0..n-1} (n-1)!/i!, always an integer
* ``zeta``      -- target zeta(k), k >= 2;
                   a_n = sum_{i=0..n-1} C(n-1,i) (-1)^i/(i+1)^k
* ``factorial`` -- a_n = (n-1)!; a deliberate counterexample whose
                   approximants follow the harmonic numbers and diverge

Index 0 is never produced here: downstream consumers substitute a_0 = 0 by
construction. A ``MomentSequence`` keeps one list of the moments known so
far, which grows on demand for a built-in family and is fixed for a custom
one read from a small JSON file (see ``load_moments``); nothing is assumed
about its positive definiteness, which the recurrence engine discovers and
reports at runtime. ``cli._sequence`` maps family names to these builders.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial

from .errors import IndexOutOfRange, ParseError
from .exactnum import MAX_DIGITS, parse_decimal, parse_rational

# Ten-digit targets for gamma/gompertz, nine-digit for the zeta constants.
REFERENCE_DECIMALS = {
    "gamma": "0.5772156649",
    "gompertz": "0.5963473623",
    ("zeta", 2): "1.644934067",
    ("zeta", 3): "1.202056903",
}


class ReferenceConstant(namedtuple("ReferenceConstant", "decimal")):
    """A target constant L(e_0), kept as its published decimal string."""

    def as_fraction(self) -> Fraction:
        return parse_decimal(self.decimal)


def _check_index(n: int) -> None:
    if n < 1:
        raise ValueError(f"moments are defined for n >= 1, got {n}")


def gamma_moment(n: int) -> Fraction:
    """(n-1)! * sum_{i=0..n} C(n,i) (-1)^i (n-2i-1) / (i+1)^(n+1)."""
    _check_index(n)
    total = Fraction(0)
    for i in range(n + 1):
        term = Fraction(comb(n, i) * (n - 2 * i - 1), (i + 1) ** (n + 1))
        total += -term if i % 2 else term
    return factorial(n - 1) * total


def gompertz_moment(n: int) -> Fraction:
    """sum_{i=0..n-1} (n-1)!/i!, an integer for every n >= 1."""
    _check_index(n)
    f = factorial(n - 1)
    return Fraction(sum(f // factorial(i) for i in range(n)))


def zeta_moment(k: int, n: int) -> Fraction:
    """sum_{i=0..n-1} C(n-1,i) (-1)^i / (i+1)^k for k >= 2."""
    if k < 2:
        raise ValueError(f"zeta moments require k >= 2, got {k}")
    _check_index(n)
    total = Fraction(0)
    for i in range(n):
        term = Fraction(comb(n - 1, i), (i + 1) ** k)
        total += -term if i % 2 else term
    return total


def factorial_moment(n: int) -> Fraction:
    """(n-1)!."""
    _check_index(n)
    return Fraction(factorial(n - 1))


class MomentSequence:
    """Named provider of exact moments a_n = L(e_n) for n >= 1.

    One list holds the moments known so far, a_1 first: a custom file's
    fixed ``values``, or a built-in family's, which ``fn`` (n -> a_n)
    extends on demand. Without ``fn``, a moment past the end of the list
    raises IndexOutOfRange. ``reference`` optionally holds the target
    constant's decimal string.
    """

    def __init__(self, name: str, *, fn=None, values=(),
                 reference: str | None = None):
        self.name = name
        self._fn = fn
        self._known: list[Fraction] = list(values)
        self.reference = (
            ReferenceConstant(reference) if reference is not None else None
        )

    def moment(self, n: int) -> Fraction:
        _check_index(n)
        while len(self._known) < n:
            if self._fn is None:
                raise IndexOutOfRange(n, len(self._known))
            self._known.append(self._fn(len(self._known) + 1))
        return self._known[n - 1]

    def moments(self, count: int) -> list[Fraction]:
        """The first `count` moments a_1 .. a_count."""
        return [self.moment(n) for n in range(1, count + 1)]


def gamma_sequence() -> MomentSequence:
    return MomentSequence("gamma", fn=gamma_moment,
                          reference=REFERENCE_DECIMALS["gamma"])


def gompertz_sequence() -> MomentSequence:
    return MomentSequence("gompertz", fn=gompertz_moment,
                          reference=REFERENCE_DECIMALS["gompertz"])


def zeta_sequence(k: int) -> MomentSequence:
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    return MomentSequence(f"zeta({k})", fn=lambda n: zeta_moment(k, n),
                          reference=REFERENCE_DECIMALS.get(("zeta", k)))


def factorial_sequence() -> MomentSequence:
    # No reference: the approximants of this family do not converge.
    return MomentSequence("factorial", fn=factorial_moment)


def _position_of(raw: str, token: str) -> tuple[int | None, int | None]:
    """Line and column of the string literal in the JSON text ``raw`` that
    decodes to ``token``; (None, None) unless exactly one does, as then the
    literal that was parsed cannot be told apart from the others."""
    from json.decoder import scanstring

    found, at = [], raw.find('"')
    while at >= 0:
        text, end = scanstring(raw, at + 1)
        if text == token:
            found.append(at)
        at = raw.find('"', end)
    if len(found) != 1:
        return None, None
    at = found[0]
    line = raw.count("\n", 0, at) + 1
    column = at - (raw.rfind("\n", 0, at) + 1) + 1
    return line, column


_JSON_TYPES = {dict: "object", list: "array", bool: "boolean", type(None): "null"}


def load_moments(path) -> MomentSequence:
    """Load a custom moment sequence from a JSON file.

    Expected shape::

        {"name": "mine", "a": ["1", "2", "5", "16"], "reference": "0.5963473623"}

    ``a`` lists a_1 first (a_0 must not appear) using the rational text
    grammar; ``reference`` is an optional decimal string for the target
    constant, stored without surrounding whitespace and at most MAX_DIGITS
    characters long. Malformed entries (also one past the int/str digit limit)
    raise ParseError pointing at the offending token, as does a file that is
    not UTF-8, too deep for the JSON parser or holds a number literal past
    that limit; a moment past the end of ``a`` raises IndexOutOfRange.
    """
    import json  # here, so that runs on a built-in family never load it

    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"moment file is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid moment file: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid moment file: nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the int/str digit limit
        raise ParseError("invalid moment file: a number has more than "
                         f"{sys.get_int_max_str_digits()} digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("moment file must hold a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError('moment file needs a nonempty string field "name"')
    entries = doc.get("a")
    if not isinstance(entries, list):
        raise ParseError('moment file needs an array field "a" (a_1 first)')
    values = []
    for idx, entry in enumerate(entries, start=1):
        if not isinstance(entry, str):  # name its JSON type: the value may be huge
            kind = _JSON_TYPES.get(type(entry), "number")
            raise ParseError(f"moment a_{idx} must be a rational string, got a JSON {kind}")
        try:
            values.append(parse_rational(entry))
        except ParseError as exc:
            line, column = _position_of(raw, entry)
            raise ParseError(f"moment a_{idx}: {exc}", line=line, column=column) from exc
    reference = doc.get("reference")
    if reference is not None:
        if not isinstance(reference, str):
            raise ParseError('"reference" must be a decimal string')
        try:
            if len(reference.strip()) > MAX_DIGITS:  # before int(), quadratic in it
                raise ParseError(f"longer than {MAX_DIGITS} characters")
            parse_decimal(reference)
        except ParseError as exc:
            line, column = _position_of(raw, reference)
            raise ParseError(f"reference: {exc}", line=line, column=column) from exc
        reference = reference.strip()  # as parse_decimal reads it; validate counts its digits
    return MomentSequence(name, values=values, reference=reference)
