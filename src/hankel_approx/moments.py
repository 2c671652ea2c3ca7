"""Exact moment sequences a_n = L(e_n) for the built-in linear functionals.

Four families ship with the package, each an exact rational sequence (the
defining integrals are used only as independent oracles in the test suite):

* ``gamma``     -- target Euler-Mascheroni constant, by the closed form
                   a_n = (n-1)! * sum_{i=0..n} C(n,i) (-1)^i (n-2i-1)/(i+1)^(n+1)
* ``gompertz``  -- target Euler-Gompertz constant, by the recurrence
                   a_1 = 1, a_{n+1} = n a_n + 1 (integration by parts)
* ``zeta``      -- target zeta(k), k >= 2, by the closed form
                   a_n = sum_{i=0..n-1} C(n-1,i) (-1)^i/(i+1)^k
* ``factorial`` -- a_1 = 1, a_{n+1} = n a_n, so a_n = (n-1)!; a deliberate
                   counterexample whose approximants follow the harmonic
                   numbers and diverge

Index 0 is never produced here: downstream consumers substitute a_0 = 0 by
construction. A ``MomentSequence`` reads its values on demand into one list
of the moments known so far: an endless generator for a built-in family, the
list of a custom one read from a small JSON file (see ``load_moments``);
nothing is assumed about its positive definiteness, which the recurrence
engine discovers and reports at runtime. ``cli._sequence`` maps family names
to these builders.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial, lcm

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


def _alternating_sum(weights: list[int], s: int) -> Fraction:
    """sum_i (-1)^i weights[i] / (i+1)^s over one denominator, lcm(1..len(weights))^s."""
    d = lcm(*range(1, len(weights) + 1)) ** s
    return Fraction(sum((-1) ** i * w * (d // (i + 1) ** s) for i, w in enumerate(weights)), d)


def gamma_moment(n: int) -> Fraction:
    """(n-1)! * sum_{i=0..n} C(n,i) (-1)^i (n-2i-1) / (i+1)^(n+1)."""
    _check_index(n)
    return factorial(n - 1) * _alternating_sum(
        [comb(n, i) * (n - 2 * i - 1) for i in range(n + 1)], n + 1)


def zeta_moment(k: int, n: int) -> Fraction:
    """sum_{i=0..n-1} C(n-1,i) (-1)^i / (i+1)^k for k >= 2."""
    if k < 2:
        raise ValueError(f"zeta moments require k >= 2, got {k}")
    _check_index(n)
    return _alternating_sum([comb(n - 1, i) for i in range(n)], k)


class MomentSequence:
    """Named provider of exact moments a_n = L(e_n) for n >= 1.

    ``values`` is any iterable of a_1, a_2, ...: a custom file's list, or a
    built-in family's endless generator. It is read on demand into one list
    of the moments known so far; a moment past its end raises
    IndexOutOfRange. The routes read theirs in one ``prefix`` call.
    ``reference`` optionally holds the target constant's decimal string.
    """

    def __init__(self, name: str, values, reference: str | None = None):
        self.name = name
        self._values = iter(values)
        self._known: list[Fraction] = []
        self.reference = (
            ReferenceConstant(reference) if reference is not None else None
        )

    # perfbench/spans.py still reads a loaded sequence through moment; ROADMAP item 3 removes it.
    def moment(self, n: int) -> Fraction:
        _check_index(n)
        known, short = self.prefix(n)
        if short is not None:
            raise IndexOutOfRange(n, short.available)
        return known[-1]

    def prefix(self, count: int) -> tuple[list[Fraction], IndexOutOfRange | None]:
        """a_1 .. a_count as far as the sequence goes, and the IndexOutOfRange
        of the first moment missing (None when none is). A negative count
        raises ValueError."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        known = self._known
        known.extend(islice(self._values, max(count - len(known), 0)))
        if len(known) < count:
            return known[:], IndexOutOfRange(len(known) + 1, len(known))
        return known[:count], None


def _by_parts(c: int):
    """a_1 = 1 and a_{n+1} = n a_n + c, without end."""
    a = 1
    for n in count(1):
        yield Fraction(a)
        a = n * a + c


def gamma_sequence() -> MomentSequence:
    return MomentSequence("gamma", map(gamma_moment, count(1)),
                          REFERENCE_DECIMALS["gamma"])


def gompertz_sequence() -> MomentSequence:
    return MomentSequence("gompertz", _by_parts(1), REFERENCE_DECIMALS["gompertz"])


def zeta_sequence(k: int) -> MomentSequence:
    if k < 2:
        raise ValueError(f"zeta requires k >= 2, got {k}")
    return MomentSequence(f"zeta({k})", (zeta_moment(k, n) for n in count(1)),
                          REFERENCE_DECIMALS.get(("zeta", k)))


def factorial_sequence() -> MomentSequence:
    # No reference: the approximants of this family do not converge.
    return MomentSequence("factorial", _by_parts(0))


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
    not UTF-8 or too deep for the JSON parser. A JSON number in any of the
    three fields gets that field's type error, whatever its length; under
    any other key it is ignored. A moment past the end of ``a`` raises
    IndexOutOfRange.
    """
    import json  # here, so that runs on a built-in family never load it

    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"moment file is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        doc = json.loads(raw, parse_int=float)  # float(): no digit limit, and still a number
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid moment file: {exc.msg}",
                         line=exc.lineno, column=exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid moment file: nested too deeply") from exc
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
    return MomentSequence(name, values, reference)
