"""The command line's contract on hostile moment files, tested generatively.

Whatever a moment file holds (recursive JSON documents, near-valid moment
files, raw bytes), ``approx``, ``validate`` and ``moments`` end without a
traceback, with exit code 0, 2, 3 or 4 and at most one short ``error:``
line on stderr, and the rows ``approx`` prints are n = 0, 1, ... in order.
``approx --method det`` prints exactly what ``approx`` prints.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .conftest import run_cli

json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=12))
json_values = st.recursive(
    json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["name", "a", "reference"])
                                        | st.text(max_size=6), children, max_size=4)),
    max_leaves=12)
# Nested arrays as the moment list, past the JSON parser's depth limit too.
deep_documents = st.integers(1, 2000).map(lambda d: '{"name": "x", "a": ' + "[" * d + "]" * d + "}")

# Digit strings up to a few thousand characters long, by a repeated pattern.
long_digits = st.builds(lambda pattern, size: (pattern * size)[:size],
                        st.text("0123456789", min_size=1, max_size=6),
                        st.integers(1, 40) | st.integers(41, 3000))
rationals = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 9)),
    long_digits,
    st.builds("{}/{}".format, st.integers(1, 9), long_digits),  # "1/000" too
)
bad_entries = st.one_of(
    st.builds("{}/0".format, st.integers(-30, 30)),
    long_digits.map(lambda digits: "1/" + "0" * len(digits)),
    st.builds(lambda digits, at, bad: digits[:at] + bad + digits[at:],  # one bad spot
              long_digits, st.integers(0, 3000), st.text(min_size=1, max_size=3)),
    st.text(max_size=60),
    json_values,  # not a string, mostly
)
decimals = st.builds("{}.{}".format, st.integers(-2, 2), long_digits)
bad_references = st.one_of(
    st.builds("{}{}".format, decimals, st.text(min_size=1, max_size=3)),
    long_digits,
    st.text(max_size=60),
    json_values,
)


@st.composite
def near_valid_files(draw):
    """A valid moment file with at most one defect: in an entry, in the
    reference or in the name."""
    doc = {"name": "mine", "a": draw(st.lists(rationals, max_size=10))}
    if draw(st.booleans()):
        doc["reference"] = draw(decimals)
    defect = draw(st.sampled_from(["none", "entry", "reference", "name"]))
    if defect == "entry":
        doc["a"].insert(draw(st.integers(0, len(doc["a"]))), draw(bad_entries))
    elif defect == "reference":
        doc["reference"] = draw(bad_references)
    elif defect == "name":
        doc["name"] = draw(json_values)
    return json.dumps(doc)


moment_files = st.one_of(
    json_values.map(json.dumps),
    deep_documents,
    near_valid_files(),
    near_valid_files(),
    st.binary(max_size=200),
)


@pytest.fixture(scope="module")
def moments_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "moments.json"


@settings(max_examples=200, deadline=None)
@given(content=moment_files, n_max=st.integers(0, 4), count=st.integers(1, 4),
       fmt=st.sampled_from(["table", "csv"]))
def test_hostile_moment_files_keep_the_cli_contract(moments_path, content, n_max, count, fmt):
    if isinstance(content, str):
        content = content.encode()
    moments_path.write_bytes(content)
    family = ["--family", "custom", "--moments-file", str(moments_path)]
    runs = {
        "approx": ["approx", *family, "--n-max", str(n_max), "--format", fmt],
        "validate": ["validate", *family, "--n-max", str(n_max)],
        "moments": ["moments", *family, "--count", str(count)],
    }
    for command, args in runs.items():
        res = run_cli(args)  # a traceback propagates and fails the test
        assert res.exit_code in (0, 2, 3, 4), command
        errors = [line for line in res.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) <= 1 and all(len(line) <= 300 for line in errors), (
            command, res.stderr[:400])
        if command == "approx":
            rows = res.stdout.splitlines()
            if fmt == "csv" and rows:
                assert rows.pop(0) == "n,P,Q,value,gap"
            separator = "," if fmt == "csv" else " | "
            assert [row.split(separator)[0] for row in rows] == [
                str(n) for n in range(len(rows))]
            assert len(rows) <= n_max + 1
            assert run_cli([*args, "--method", "det"]) == res
