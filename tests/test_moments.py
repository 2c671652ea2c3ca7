from __future__ import annotations

from fractions import Fraction

import pytest

from hankel_approx.errors import IndexOutOfRange, ParseError
from hankel_approx.exactnum import MAX_DIGITS
from hankel_approx.moments import (
    FAMILIES,
    MomentSequence,
    ReferenceConstant,
    family_sequence,
    factorial_moment,
    factorial_sequence,
    gamma_moment,
    gamma_sequence,
    gompertz_moment,
    gompertz_sequence,
    load_moments,
    zeta_moment,
    zeta_sequence,
)

from .oracles import gamma_moment_quad, gompertz_moment_quad, zeta_moment_quad


def test_gamma_first_moments():
    assert gamma_moment(1) == Fraction(1, 2)
    assert gamma_moment(2) == Fraction(41, 36)


def test_gompertz_first_moments():
    assert [gompertz_moment(n) for n in range(1, 6)] == [1, 2, 5, 16, 65]


def test_gompertz_recurrence():
    # a_{n+1} = n a_n + 1 is an independent restatement of the closed form.
    for n in range(1, 30):
        assert gompertz_moment(n + 1) == n * gompertz_moment(n) + 1


def test_zeta_first_moments():
    assert zeta_moment(2, 1) == 1
    assert zeta_moment(2, 2) == Fraction(3, 4)
    assert zeta_moment(3, 2) == Fraction(7, 8)


def test_factorial_moments():
    assert [factorial_moment(n) for n in range(1, 6)] == [1, 1, 2, 6, 24]


@pytest.mark.parametrize("fn", [gamma_moment, gompertz_moment, factorial_moment])
def test_moment_index_lower_bound(fn):
    with pytest.raises(ValueError):
        fn(0)


def test_zeta_moment_argument_checks():
    with pytest.raises(ValueError):
        zeta_moment(1, 3)
    with pytest.raises(ValueError):
        zeta_moment(2, 0)


def test_gamma_moments_match_quadrature():
    for n in range(1, 7):
        value, err = gamma_moment_quad(n)
        assert abs(float(gamma_moment(n)) - value) <= max(1e-9, 10 * err)


def test_gompertz_moments_match_quadrature():
    for n in range(1, 7):
        value, err = gompertz_moment_quad(n)
        assert abs(float(gompertz_moment(n)) - value) <= max(1e-9, 10 * err)


@pytest.mark.parametrize("k", [2, 3])
def test_zeta_moments_match_quadrature(k):
    for n in range(1, 7):
        value, err = zeta_moment_quad(k, n)
        assert abs(float(zeta_moment(k, n)) - value) <= max(1e-9, 10 * err)


def test_sequence_caching_is_stable():
    seq = gompertz_sequence()
    first = seq.moment(5)
    assert seq.moment(5) == first
    assert seq.moments(5) == [1, 2, 5, 16, 65]
    assert len(seq.moments(3)) == 3


def test_sequence_requires_exactly_one_source():
    with pytest.raises(ValueError):
        MomentSequence("x")
    with pytest.raises(ValueError):
        MomentSequence("x", fn=lambda n: Fraction(n), values=[Fraction(1)])


def test_fixed_sequence_bounds():
    seq = MomentSequence("mine", values=[Fraction(1), Fraction(2), Fraction(5)])
    assert seq.moment(3) == 5
    with pytest.raises(IndexOutOfRange) as excinfo:
        seq.moment(4)
    assert excinfo.value.requested == 4
    assert excinfo.value.available == 3
    with pytest.raises(ValueError):
        seq.moment(0)


def test_builtin_sequence_dispatch(write_moments_file):
    assert set(FAMILIES) == {"gamma", "gompertz", "zeta", "factorial", "custom"}
    assert family_sequence("gamma").name == "gamma"
    assert family_sequence("zeta", 3).name == "zeta(3)"
    assert family_sequence("zeta", 3).moments(2) == [1, Fraction(7, 8)]  # 1 - 1/2^3
    assert family_sequence("factorial").reference is None
    path = write_moments_file("mine", ["1", "7/2"])
    custom = family_sequence("custom", moments_file=path)
    assert (custom.name, custom.moments(2)) == ("mine", [1, Fraction(7, 2)])
    with pytest.raises(ValueError):
        family_sequence("zeta")
    with pytest.raises(ValueError, match="custom family requires a moments file"):
        family_sequence("custom")
    with pytest.raises(ValueError):
        family_sequence("fibonacci")
    with pytest.raises(ValueError):
        zeta_sequence(1)


def test_references():
    assert gamma_sequence().reference.as_fraction() == Fraction(5772156649, 10**10)
    assert gompertz_sequence().reference.decimal == "0.5963473623"
    assert zeta_sequence(2).reference.decimal == "1.644934067"
    assert zeta_sequence(3).reference.decimal == "1.202056903"
    assert zeta_sequence(4).reference is None
    assert factorial_sequence().reference is None
    ref = ReferenceConstant("0.5000")
    assert ref.as_fraction() == Fraction(1, 2)


def test_load_moments_roundtrip(write_moments_file):
    path = write_moments_file("mine", ["1", "2", "5", "31/6"], reference="0.5963473623")
    seq = load_moments(path)
    assert seq.name == "mine"
    assert seq.moments(4) == [1, 2, 5, Fraction(31, 6)]
    assert seq.reference.as_fraction() == Fraction(5963473623, 10**10)


def test_load_moments_stores_the_reference_stripped_up_to_the_ceiling(write_moments_file):
    # Whitespace does not count toward the MAX_DIGITS characters and is
    # not stored; one character more is refused before int() sees it.
    at_ceiling = "0." + "1" * (MAX_DIGITS - 2)
    seq = load_moments(write_moments_file("mine", ["1"], reference=f"\n {at_ceiling}\t "))
    assert seq.reference.decimal == at_ceiling
    with pytest.raises(ParseError, match=f"^reference: longer than {MAX_DIGITS} characters"):
        load_moments(write_moments_file("mine", ["1"], reference=at_ceiling + "1"))


def test_load_moments_without_reference(write_moments_file):
    seq = load_moments(write_moments_file("bare", ["1", "1"]))
    assert seq.reference is None


def test_load_moments_rejects_bad_shapes(tmp_path, write_moments_file):
    arr = tmp_path / "arr.json"
    arr.write_text('["1", "2"]')
    with pytest.raises(ParseError):
        load_moments(arr)

    noname = tmp_path / "noname.json"
    noname.write_text('{"a": ["1"]}')
    with pytest.raises(ParseError):
        load_moments(noname)

    noa = tmp_path / "noa.json"
    noa.write_text('{"name": "x", "a": "1"}')
    with pytest.raises(ParseError):
        load_moments(noa)

    nonstring = tmp_path / "nonstring.json"
    nonstring.write_text('{"name": "x", "a": [1]}')
    with pytest.raises(ParseError) as excinfo:
        load_moments(nonstring)
    assert "a_1" in str(excinfo.value)


def test_load_moments_locates_bad_tokens(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "name": "x",\n  "a": ["1", "2/0"]\n}')
    with pytest.raises(ParseError) as excinfo:
        load_moments(path)
    assert "a_2" in str(excinfo.value)
    assert excinfo.value.line == 3

    ref = tmp_path / "badref.json"
    ref.write_text('{"name": "x", "a": ["1"], "reference": "abc"}')
    with pytest.raises(ParseError):
        load_moments(ref)


def test_load_moments_reports_json_errors(tmp_path):
    path = tmp_path / "trailing.json"
    path.write_text('{"name": "x", "a": ["1"],}')
    with pytest.raises(ParseError) as excinfo:
        load_moments(path)
    assert excinfo.value.line is not None


def test_load_moments_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_moments(tmp_path / "nope.json")
