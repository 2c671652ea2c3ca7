from __future__ import annotations

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hankel_approx
from hankel_approx import cli, driver, hankel, moments
from hankel_approx.cli import FAMILIES, MAX_DIGITS
from hankel_approx.driver import CHECK_PRIME, render
from hankel_approx.errors import PositivityViolation
from hankel_approx.hankel import hankel_residues
from hankel_approx.moments import load_moments

from .conftest import collect, ortho_records, record_eliminations, run_cli
from .golden_values import GAMMA_ROWS, GOMPERTZ_ROWS
from .oracles import records_from_json


def gompertz_table(rows: int) -> str:
    """Gompertz rows 0 .. rows - 1 as approx prints them by default."""
    return "".join(f"{n} | {GOMPERTZ_ROWS[n][0]} | {GOMPERTZ_ROWS[n][1]}\n" for n in range(rows))


def test_approx_table():
    res = run_cli(["approx", "--family", "gompertz", "--n-max", "3"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines == [
        f"{n} | {GOMPERTZ_ROWS[n][0]} | {GOMPERTZ_ROWS[n][1]}" for n in range(4)
    ]


def test_approx_digits_option():
    res = run_cli(["approx", "--family", "gompertz", "--n-max", "1", "--digits", "3"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["0 | 1/2 | 0.500", "1 | 4/7 | 0.571"]
    # Above the ceiling the request is refused before any work starts.
    res = run_cli(["approx", "--family", "gompertz", "--n-max", "0",
                   "--digits", str(MAX_DIGITS + 1)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert f"is not in the range 1<=x<={MAX_DIGITS}" in res.stderr


def test_approx_csv():
    res = run_cli(["approx", "--family", "zeta", "--k", "2", "--n-max", "2", "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "n,P,Q,value,gap"
    assert len(lines) == 4
    assert lines[2].split(",")[3] == "135/89"


def test_approx_json_roundtrips():
    res = run_cli(["approx", "--family", "factorial", "--n-max", "3", "--format", "json"])
    assert res.exit_code == 0
    records = records_from_json(res.stdout)
    assert [str(r.value) for r in records] == ["1", "3/2", "11/6", "25/12"]
    assert all(r.gap is None for r in records)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_approx_writes_each_row_before_it_computes_the_next(monkeypatch, fmt):
    # A spy on the walk reads stdout each time the walk hands over a row:
    # when row k comes, rows 0 .. k - 1 are already written.
    stdout, seen, walk = io.StringIO(), [], cli.walk

    def spy(*args):
        for record in walk(*args):
            seen.append(stdout.getvalue())
            yield record

    monkeypatch.setattr(cli, "walk", spy)
    with contextlib.redirect_stdout(stdout):
        cli.main(["approx", "--family", "gompertz", "--n-max", "4", "--format", fmt])
    rows = {"table": lambda text: text.count("\n"),
            "csv": lambda text: max(text.count("\n") - 1, 0),  # less the header
            "json": lambda text: text.count('"n": ')}[fmt]
    assert [rows(text) for text in seen] == [0, 1, 2, 3, 4]
    assert all(stdout.getvalue().startswith(text) for text in seen)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_approx_flushes_each_row_it_writes(fmt):
    # Through a pipe or into a file stdout is block-buffered, so a row that
    # is written but not flushed would not stream.
    calls = []

    class Recording(io.StringIO):
        def write(self, text):
            calls.append("write")
            return super().write(text)

        def flush(self):
            calls.append("flush")
            super().flush()

    with contextlib.redirect_stdout(Recording()):
        cli.main(["approx", "--family", "gompertz", "--n-max", "4", "--format", fmt])
    assert calls.count("write") >= 5
    assert all(calls[i + 1] == "flush" for i, call in enumerate(calls) if call == "write")


def test_closed_pipe_stops_the_walk_at_the_first_write(monkeypatch, tmp_path):
    # A stdout whose first write fails as a closed pipe does: approx exits 4
    # without computing the remaining rows. main points the stdout's file
    # descriptor at os.devnull, so it gets one of its own.
    yielded, walk = [], cli.walk

    def counting(*args):
        for record in walk(*args):
            yielded.append(record.n)
            yield record

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def fileno(self):
            return fd

    monkeypatch.setattr(cli, "walk", counting)
    stderr = io.StringIO()
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(stderr):
            with pytest.raises(SystemExit) as stop:
                cli.main(["approx", "--family", "gompertz", "--n-max", "30"])
    finally:
        os.close(fd)
    assert stop.value.code == 4
    assert stderr.getvalue() == "error: stdout was closed before the output was complete\n"
    assert 1 <= len(yielded) <= 2


def test_approx_json_prints_the_ratio_the_table_elides():
    # The table elides a long ratio; --format json prints it whole as "value".
    args = ["approx", "--family", "gompertz", "--n-max", "21"]
    elided = run_cli(args)
    assert elided.exit_code == 0
    last = elided.stdout.splitlines()[-1]
    assert last.startswith("21 | - | ")
    full = run_cli(args + ["--format", "json"])
    assert json.loads(full.stdout)[21]["value"] == (
        "714785218276618032951940/1198605668577020653881647")


def test_approx_custom_family(write_moments_file):
    path = write_moments_file("mine", ["1", "2", "5", "16"], reference="0.5963473623")
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "1"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == [
        "0 | 1/2 | 0.5000000000",
        "1 | 4/7 | 0.5714285714",
    ]


def test_approx_positivity_violation_prints_partial_rows(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "3"])
    assert res.exit_code == 3
    assert res.stdout.splitlines()[0] == "0 | 1 | 1.0000000000"
    assert "error:" in res.stderr


def test_approx_missing_moments_file(tmp_path):
    res = run_cli(["approx", "--family", "custom", "--moments-file",
                   str(tmp_path / "nope.json"), "--n-max", "1"])
    assert res.exit_code == 4
    assert "error:" in res.stderr


def test_approx_malformed_moments_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "1"])
    assert res.exit_code == 4


@pytest.mark.parametrize("command", [
    ["approx", "--n-max", "1"],
    ["validate", "--n-max", "1"],
    ["moments", "--count", "1"],
])
def test_non_utf8_moments_file_is_a_parse_error(tmp_path, command):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    res = run_cli(command + ["--family", "custom", "--moments-file", str(path)])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == "error: moment file is not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize("command", [
    ["approx", "--n-max", "1"],
    ["validate", "--n-max", "1"],
    ["moments", "--count", "1"],
])
@pytest.mark.parametrize("text, stderr", [
    ('{"name": "x", "a": ' + "[" * 1001 + "]" * 1001 + "}",
     "error: invalid moment file: nested too deeply\n"),
    ('{"name": "x", "a": ["' + "1" * 2_000_001 + '"]}',
     "error: moment a_1: number has more than 2000000 digits (line 1, column 21)\n"),
    ('{"name": "x", "a": ["1"], "reference": "0.' + "1" * 2_000_000 + '"}',
     "error: reference: longer than 100000 characters (line 1, column 40)\n"),
    ('{"name": "x", "a": [' + "1" * 2_000_001 + "]}",
     "error: moment a_1 must be a rational string, got a JSON number\n"),
    ('{"name": ' + "1" * 2_000_001 + ', "a": ["1"]}',
     'error: moment file needs a nonempty string field "name"\n'),
    ('{"name": "x", "a": ["1"], "reference": ' + "1" * 2_000_001 + "}",
     'error: "reference" must be a decimal string\n'),
    ('{"name": "x", "a": [5]}',
     "error: moment a_1 must be a rational string, got a JSON number\n"),
    ('{"name": "x", "a": [' + "[" * 900 + "]" * 900 + "]}",
     "error: moment a_1 must be a rational string, got a JSON array\n"),
    ('{"name": "x", "a": ["\\u0661", "\\u0662"]}',
     "error: moment a_1: not a rational: '\u0661' (line 1, column 21)\n"),
    ('{"name": "x", "a": ["1", "2"], "reference": "\\u0660.5"}',
     "error: reference: not a fixed-point decimal: '\u0660.5' (line 1, column 45)\n"),
    ('{"name": "abc",\n "a": ["1", "abc"]}',
     "error: moment a_2: not a rational: 'abc'\n"),
    ('{"name": "x\\"abc", "a": ["1", "abc"]}',
     "error: moment a_2: not a rational: 'abc' (line 1, column 31)\n"),
], ids=["nested", "long-moment", "long-reference", "long-literal", "long-literal-name",
        "long-literal-reference", "number-entry", "nested-entry", "non-ascii-moment",
        "non-ascii-reference", "entry-equals-name", "entry-inside-name"])
def test_hostile_moments_file_is_a_parse_error(tmp_path, command, text, stderr):
    # Too deep for the JSON parser, a string with more digits than the
    # int/str limit that importing the package sets, a JSON number in a
    # field (that field's type error, however long the number), an entry
    # whose text must not be echoed, or digits outside 0-9 (Arabic-Indic
    # here), which int() alone would read: one short error line, no
    # traceback. A bad string's position is that of the one literal decoding
    # to it, escapes and all; with two such literals (the name and the entry)
    # the line gives none.
    path = tmp_path / "hostile.json"
    path.write_text(text)
    res = run_cli(command + ["--family", "custom", "--moments-file", str(path)])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == stderr
    assert len(res.stderr.encode()) < 100


def test_long_number_under_an_unknown_key_is_ignored(tmp_path):
    # No JSON number reaches int(), so a literal past the int/str limit under
    # a key the schema does not read changes nothing.
    plain = '{"name": "x", "a": ["1", "2", "5", "16"]'
    outputs = []
    for text in (plain + "}", plain + ', "extra": ' + "1" * 2_000_001 + "}"):
        path = tmp_path / "moments.json"
        path.write_text(text)
        res = run_cli(["approx", "--family", "custom", "--moments-file", str(path),
                       "--n-max", "1"])
        assert res.exit_code == 0
        outputs.append(res.stdout)
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("entry, reference, stderr", [
    ("1" * 99_999 + "x", None, "error: moment a_1: not a rational: '" + "1" * 39
     + "... (100000 characters) (line 1, column 21)\n"),
    ("1/" + "0" * 99_998, None, "error: moment a_1: zero denominator in '1/" + "0" * 37
     + "... (100000 characters) (line 1, column 21)\n"),
    ("1", "0." + "1" * 99_997 + "x", "error: reference: not a fixed-point decimal: '0."
     + "1" * 37 + "... (100000 characters) (line 1, column 40)\n"),
], ids=["moment", "zero-denominator", "reference"])
def test_long_bad_string_is_echoed_cut_short(write_moments_file, entry, reference,
                                             stderr):
    # A malformed string shows the first 40 characters of its repr() and its length.
    path = write_moments_file("x", [entry], reference=reference)
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path),
                   "--n-max", "0"])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == stderr


@pytest.mark.parametrize("method", ["both", "det"])
def test_long_exact_value_in_an_error_is_cut_short(write_moments_file, method):
    # t_1 = Q_1 / Q_0 = a_2 a_4 - a_3^2 = 1/D - 324 (Q_0 = a_2 = 1) has 235
    # characters: the error line shows its first 40 and its length, after
    # the row it printed.
    d = int("3" * 115)
    text = str(Fraction(1, d) - 324)
    path = write_moments_file("long", ["0", "1", "18", f"1/{d}"])
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path),
                   "--n-max", "1", "--method", method])
    assert res.exit_code == 3
    assert res.stdout == "0 | 0 | 0.0000000000\n"
    assert res.stderr == ("error: positive definiteness fails at degree 1: squared norm "
                          f"{text[:40]}... ({len(text)} characters) <= 0\n")


def test_approx_short_custom_sequence(write_moments_file):
    # n_max = 2 needs six moments; four cover n = 0 and 1, then it is an input error.
    path = write_moments_file("short", ["1", "2", "5", "16"])
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "2"])
    assert res.exit_code == 4
    assert res.stdout.splitlines() == ["0 | 1/2 | 0.5000000000", "1 | 4/7 | 0.5714285714"]
    assert "out of range" in res.stderr
    assert "supports n <= 1" in res.stderr
    res = run_cli(["validate", "--family", "custom", "--moments-file", str(path), "--n-max", "2"])
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == ("error: moment index 5 out of range: only 4 moments available; "
                          "the moment file supports n <= 1\n")

    one = write_moments_file("one", ["1"], filename="one.json")
    for command in ("approx", "validate"):
        res = run_cli([command, "--family", "custom", "--moments-file", str(one), "--n-max", "0"])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr == ("error: moment index 2 out of range: only 1 moment available; "
                              "the moment file supports no n\n")
    res = run_cli(["moments", "--family", "custom", "--moments-file", str(one), "--count", "2"])
    assert (res.exit_code, res.stdout) == (4, "")
    assert res.stderr == "error: moment index 2 out of range: only 1 moment available\n"


def test_approx_short_custom_sequence_of_odd_length(write_moments_file):
    # Five moments still cover only n <= 1: n = 2 needs a_6.
    path = write_moments_file("short", ["1", "2", "5", "16", "65"])
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "3"])
    assert res.exit_code == 4
    assert res.stdout.splitlines() == ["0 | 1/2 | 0.5000000000", "1 | 4/7 | 0.5714285714"]
    assert res.stderr == ("error: moment index 6 out of range: only 5 moments available; "
                          "the moment file supports n <= 1\n")
    flat = write_moments_file("flat", ["1"] * 5, filename="flat.json")
    res = run_cli(["approx", "--family", "custom", "--moments-file", str(flat), "--n-max", "3"])
    assert res.exit_code == 3
    assert res.stdout == "0 | 1 | 1.0000000000\n"
    assert res.stderr == "error: positive definiteness fails at degree 1: squared norm 0 <= 0\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_approx_prints_the_same_output_whatever_the_method(write_moments_file, fmt):
    # A row does not say which route made it: det prints what the default
    # prints, errors and exit codes included, on a table with a zero divisor
    # (a symmetric file) and on a file whose Q_0 is negative too.
    files = {name: write_moments_file(name, a, filename=f"{name}.json") for name, a in (
        ("symmetric", ["0", "1", "0", "2", "0", "5", "0", "14"]),
        ("negative-Q", ["1", "-1", "1", "1"]))}
    sources = [["--family", "gamma"], ["--family", "gompertz"], ["--family", "zeta", "--k", "3"],
               ["--family", "factorial"],
               *(["--family", "custom", "--moments-file", str(path)] for path in files.values())]
    for source in sources:
        args = ["approx", *source, "--n-max", "3", "--format", fmt]
        assert run_cli([*args, "--method", "det"]) == run_cli(args), source


def test_approx_method_det_runs_no_exact_determinant(monkeypatch):
    # --method det is accepted and ignored: the recurrence prints every row,
    # checked against the determinants mod the prime, and the exact table
    # never runs.
    sweeps, sweep = [], driver.hankel_sweep
    monkeypatch.setattr(driver, "hankel_sweep", lambda *args: sweeps.append(args) or sweep(*args))
    exact = record_eliminations(monkeypatch)
    args = ["approx", "--family", "factorial", "--n-max", "35", "--format", "csv"]
    res = run_cli([*args, "--method", "det"])
    assert (res.exit_code, res.stderr) == (0, "")
    assert len(res.stdout.splitlines()) == 37
    assert (sweeps, exact) == ([], [])
    assert run_cli(args) == res


def test_approx_both_falls_back_to_exact_when_the_prime_divides_a_moment(
        write_moments_file):
    # A weight of 1/CHECK_PRIME puts the prime in every moment's denominator,
    # so no residue can be formed and both compares with the exact sweep.
    weights, nodes = (1, Fraction(1, CHECK_PRIME), 3), (1, 2, Fraction(1, 3))
    a = [sum(w * x**j for w, x in zip(weights, nodes)) for j in range(1, 7)]
    path = write_moments_file("tiny-weight", [str(v) for v in a])
    assert list(hankel_residues(load_moments(path), 2, CHECK_PRIME)) == []
    runs = {
        method: run_cli([
            "approx", "--family", "custom", "--moments-file", str(path),
            "--n-max", "2", "--format", "csv", "--method", method])
        for method in ("both", "det")
    }
    assert [res.exit_code for res in runs.values()] == [0, 0]
    assert runs["both"].stdout == runs["det"].stdout
    assert len(runs["both"].stdout.splitlines()) == 4


def test_zero_divisors_through_the_cli(write_moments_file, monkeypatch):
    # A symmetric measure has a_3 = 0, a divisor of the condensation table
    # from n = 2 on, so the residues continue by elimination through n = 8,
    # where Q_8 = 0 ends them. Its eight nodes make the form definite
    # through degree 7 only. The recurrence, read directly, must give the
    # same rows, and --method det changes nothing.
    nodes, weights = (Fraction(1, 2), 1, Fraction(3, 2), 2), (1, 2, Fraction(1, 3), Fraction(1, 5))
    a = [sum(w * (x**j + (-x) ** j) for w, x in zip(weights, nodes)) for j in range(1, 19)]
    path = write_moments_file("symmetric", [str(v) for v in a])
    assert len(list(hankel_residues(load_moments(path), 8, CHECK_PRIME))) == 9
    calls = record_eliminations(monkeypatch)
    runs, eliminations = {}, {}
    for method in ("det", "both", None):
        before = len(calls)
        runs[method] = run_cli([
            "approx", "--family", "custom", "--moments-file", str(path),
            "--n-max", "8", "--format", "csv"] + (["--method", method] if method else []))
        eliminations[method] = calls[before:]
    partial = []
    with pytest.raises(PositivityViolation):
        collect(ortho_records(load_moments(path), 8), partial)
    ortho = "".join(render(partial, "csv"))
    assert [res.exit_code for res in runs.values()] == [3, 3, 3]
    assert runs["det"].stdout == runs["both"].stdout == runs[None].stdout == ortho
    assert [line.split(",")[0] for line in runs["det"].stdout.splitlines()[1:]] == [
        str(n) for n in range(8)]
    # True marks an exact elimination, False one mod the check prime: every
    # run makes the one mod the prime and no exact one.
    assert eliminations == {"det": [False], "both": [False], None: [False]}

    args = ["validate", "--family", "custom", "--moments-file", str(path), "--n-max"]
    res = run_cli(args + ["7"])
    assert res.exit_code == 0
    assert [line.split(" ")[0] for line in res.stdout.splitlines()] == ["PASS"] * 4
    res = run_cli(args + ["8"])
    assert res.exit_code == 3
    assert res.stdout == (
        "FAIL positive-definite: squared norm fails at degree 8; positive through 7\n")


# Arguments after a complete ``approx`` command that it does not take.
UNKNOWN_TRAILING = (["--out", "x"], ["--exact"], ["extra"])


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["approx", "--fam", "gamma", "--n-max", "2"],
        ["approx", "--family", "gamma", "--n-max", "2", "--digits", "0"],
        ["approx", "--family", "gamma", "--n-max", "2", "--digits", str(MAX_DIGITS + 1)],
        ["approx", "--family", "gamma", "--n-max", "2", "--moments-file", "x"],
        ["approx", "--family", "zeta", "--n-max", "2"],
        ["approx", "--family", "zeta", "--k", "1", "--n-max", "2"],
        ["approx", "--family", "zeta", "--k", "65", "--n-max", "2"],
        ["approx", "--family", "gamma", "--k", "2", "--n-max", "2"],
        ["approx", "--family", "custom", "--n-max", "2"],
        ["approx", "--family", "gompertz"],
        ["approx", "--family", "gompertz", "--n-max", "-1"],
        ["approx", "--family", "gamma", "--n-max", "1", "--method", "ortho"],
        ["approx", "--family", "gamma", "--n-max", "1", "--moments-file", "/nonexistent.json"],
        ["validate", "--family", "zeta", "--k", "2", "--n-max", "1",
         "--moments-file", "/nonexistent.json"],
        ["moments", "--family", "factorial", "--count", "1",
         "--moments-file", "/nonexistent.json"],
        ["approx", "--family", "gompertz", "--n-max", "1", "--moments-file", ""],
        # Integer options take [+-]?[0-9]+ only: not other scripts' digits,
        # full-width digits, "_" separators or surrounding spaces.
        ["approx", "--family", "gompertz", "--n-max", "\u0662"],
        ["approx", "--family", "gompertz", "--n-max", "\uff12"],
        ["approx", "--family", "gompertz", "--n-max", "0_1"],
        ["approx", "--family", "gompertz", "--n-max", " 1"],
        ["validate", "--family", "gompertz", "--n-max", "1 "],
        ["approx", "--family", "zeta", "--k", "\u0662", "--n-max", "1"],
        ["approx", "--family", "gompertz", "--n-max", "1", "--digits", "\u0663"],
        ["moments", "--family", "gompertz", "--count", "\u0662"],
        # No --out (the shell's > does its job) and no --exact (--format json
        # prints each ratio), nor any other argument after a complete command.
        *(["approx", "--family", "gompertz", "--n-max", "1", *extra] for extra in UNKNOWN_TRAILING),
    ],
)
def test_usage_errors_exit_2(args):
    res = run_cli(args)
    assert res.exit_code == 2
    assert res.stdout == ""
    if args[5:] in UNKNOWN_TRAILING:  # named by the command's parser, not the top level's
        assert res.stderr == ("usage: hankel-approx approx [OPTIONS]\nhankel-approx approx: "
                              f"error: unrecognized arguments: {' '.join(args[5:])}\n")
    if "--moments-file" in args:  # a built-in family with a moment file, named
        assert res.stderr.endswith("error: --moments-file only applies to --family custom\n")
    if any(not arg.isascii() or "_" in arg or arg != arg.strip() for arg in args):
        assert "is not a valid integer" in res.stderr


def test_every_family_resolves_through_the_cli(write_moments_file):
    # The one dispatch from a --family name to its sequence: each name
    # gives its sequence's name, first moments and reference, if any.
    path = write_moments_file("mine", ["1", "7/2"])
    expected = {
        "gamma": ([], "gamma", ["1/2", "41/36"], "0.5772156649"),
        "gompertz": ([], "gompertz", ["1", "2"], "0.5963473623"),
        "zeta": (["--k", "3"], "zeta(3)", ["1", "7/8"], "1.202056903"),
        "factorial": ([], "factorial", ["1", "1"], None),
        "custom": (["--moments-file", str(path)], "mine", ["1", "7/2"], None),
    }
    assert FAMILIES == tuple(expected)
    for family, (options, name, a, reference) in expected.items():
        res = run_cli(["moments", "--family", family, *options,
                       "--count", "2", "--format", "json"])
        assert res.exit_code == 0, family
        assert json.loads(res.stdout) == {
            "name": name, "a": a, **({"reference": reference} if reference else {})}


def test_moments_json_feeds_back_as_moments_file(tmp_path):
    res = run_cli(["moments", "--family", "gompertz", "--count", "6"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["name"] == "gompertz"
    assert doc["a"][:5] == ["1", "2", "5", "16", "65"]
    assert doc["reference"] == "0.5963473623"

    path = tmp_path / "fed.json"
    path.write_text(res.stdout)
    back = run_cli(["approx", "--family", "custom", "--moments-file", str(path), "--n-max", "2"])
    direct = run_cli(["approx", "--family", "gompertz", "--n-max", "2"])
    assert back.exit_code == 0
    assert back.stdout == direct.stdout


def test_moments_csv():
    res = run_cli(["moments", "--family", "zeta", "--k", "2", "--count", "3", "--format", "csv"])
    assert res.exit_code == 0
    assert res.stdout.splitlines() == ["n,a", "1,1", "2,3/4", "3,11/18"]


def test_moments_custom(write_moments_file):
    path = write_moments_file("mine", ["1", "7/2"])
    res = run_cli(["moments", "--family", "custom", "--moments-file", str(path), "--count", "2"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["a"] == ["1", "7/2"]

    over = run_cli(["moments", "--family", "custom", "--moments-file", str(path), "--count", "3"])
    assert over.exit_code == 4


@pytest.mark.parametrize("command", [["approx"], ["approx", "--method", "det"], ["validate"]])
def test_each_moment_is_generated_once_per_command(monkeypatch, command):
    # Every route of a command reads the one sequence's memo: a route that
    # generated its moments again would change no output, only the time.
    generate, calls = moments.gamma_moment, []

    def counted(n):
        calls.append(n)
        return generate(n)

    monkeypatch.setattr(moments, "gamma_moment", counted)
    res = run_cli([*command, "--family", "gamma", "--n-max", "5"])
    assert res.exit_code == 0, res.stderr
    assert calls == list(range(1, 13))


def test_validate_passes_builtin():
    res = run_cli(["validate", "--family", "gompertz", "--n-max", "5"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)
    assert any("reference-bound" in line for line in lines)


def test_validate_passes_inside_the_last_reference_digit():
    res = run_cli(["validate", "--family", "gompertz", "--n-max", "48"])
    assert res.exit_code == 0
    assert res.stdout.splitlines()[-1] == (
        "PASS reference-bound: every approximant is strictly below 0.5963473624, "
        "one unit above 0.5963473623 in its last digit; the first at or above "
        "0.5963473623 is n = 46")


@pytest.mark.parametrize("reference, n_max, code, line", [
    ("0.5714286", 1, 0, "PASS reference-bound: every approximant is strictly below 0.5714286"),
    ("0.5714285", 1, 0, "PASS reference-bound: every approximant is strictly below 0.5714286, "
                        "one unit above 0.5714285 in its last digit; the first at or above "
                        "0.5714285 is n = 1"),
    ("0.5714284", 1, 2, "FAIL reference-bound: every approximant is strictly below 0.5714284"),
    ("0.5", 1, 0, "PASS reference-bound: every approximant is strictly below 0.6, "
                  "one unit above 0.5 in its last digit; the first at or above 0.5 is n = 0"),
    ("0.4", 0, 2, "FAIL reference-bound: every approximant is strictly below 0.4"),
], ids=["below", "within-last-digit", "above", "at-reference", "at-reference-plus-unit"])
def test_validate_reference_bound_reads_the_last_digit(write_moments_file,
                                                       reference, n_max, code, line):
    # A_0 = 1/2 and A_1 = 4/7 = 0.57142857...: below the first reference,
    # within one unit above the second, past the third by more than a unit;
    # A_0 equals the fourth, and the fifth plus one unit.
    path = write_moments_file("mine", ["1", "2", "5", "16"], reference=reference)
    res = run_cli(["validate", "--family", "custom", "--moments-file", str(path),
                   "--n-max", str(n_max)])
    assert res.exit_code == code
    assert res.stdout.splitlines()[-1] == line


@pytest.mark.parametrize("spelling", ["0.5714285 ", "0.5714285\n", " 0.5714285"],
                         ids=["trailing-space", "trailing-newline", "leading-space"])
def test_reference_whitespace_changes_no_output(write_moments_file, spelling):
    # The stored reference is the decimal parse_decimal reads: whitespace
    # around it neither adds a digit to the reference bound nor is echoed.
    # With a trailing space the bound would fall one digit further down and
    # fail, as "above" does in the test before this one.
    outputs = []
    for reference in ("0.5714285", spelling):
        path = write_moments_file("mine", ["1", "2", "5", "16"], reference=reference)
        custom = ["--family", "custom", "--moments-file", str(path)]
        outputs.append([(res.exit_code, res.stdout, res.stderr) for res in (
            run_cli(["validate", *custom, "--n-max", "1"]),
            run_cli(["moments", *custom, "--count", "4"]))])
    assert outputs[0] == outputs[1]
    assert outputs[0][0][:2] == (0, (
        "PASS engine-agreement: determinant and recurrence paths equal for n <= 1\n"
        "PASS norm-factorization: Q_n equals the product of squared norms for n <= 1\n"
        "PASS positive-Q: Q_n > 0 for n <= 1\n"
        "PASS monotone: approximants nondecreasing for n <= 1\n"
        "PASS reference-bound: every approximant is strictly below 0.5714286, one unit "
        "above 0.5714285 in its last digit; the first at or above 0.5714285 is n = 1\n"))
    assert json.loads(outputs[0][1][1])["reference"] == "0.5714285"


def test_reference_longer_than_the_digit_ceiling_is_a_parse_error(write_moments_file):
    # The length is checked before the quadratic int() of the digits, so the
    # file is refused at once; the error line does not echo the reference.
    path = write_moments_file("mine", ["1", "2", "5", "16"],
                              reference="0." + "1" * (MAX_DIGITS - 1))
    custom = ["--family", "custom", "--moments-file", str(path)]
    for command in (["approx", "--n-max", "1"], ["validate", "--n-max", "1"],
                    ["moments", "--count", "1"]):
        res = run_cli(command + custom)
        assert (res.exit_code, res.stdout) == (4, "")
        assert res.stderr == (f"error: reference: longer than {MAX_DIGITS} characters "
                              "(line 1, column 59)\n")


def test_validate_reports_engine_mismatch(skew_sweep):
    skew_sweep(0, lambda P, Q: (Fraction(0), Q))
    res = run_cli(["validate", "--family", "gompertz", "--n-max", "5"])
    assert res.exit_code == 2
    assert res.stdout == "FAIL engine-agreement: paths disagree first at n = 0\n"


def test_approx_reports_mismatch_with_equal_ratios(skew_residues):
    # P_1 and Q_1 both doubled keep the ratio 4/7; the pair comparison sees it.
    skew_residues(1, lambda P, Q: (2 * P % CHECK_PRIME, 2 * Q % CHECK_PRIME))
    res = run_cli(["approx", "--family", "gompertz", "--n-max", "2"])
    assert res.exit_code == 2
    assert res.stdout == gompertz_table(1)  # row 0, on which both routes agree
    assert res.stderr == (
        "error: engines disagree at n=1: determinant path (P_n, Q_n) = (8, 14), "
        "recurrence path (A_n N_n, N_n) = (4, 7), both mod 2305843009213693951\n")


def test_validate_factorial_has_no_reference_line():
    res = run_cli(["validate", "--family", "factorial", "--n-max", "5"])
    assert res.exit_code == 0
    assert all("reference-bound" not in line for line in res.stdout.splitlines())


def test_validate_reports_violation(write_moments_file):
    path = write_moments_file("flat", ["1"] * 6)
    res = run_cli(["validate", "--family", "custom", "--moments-file", str(path), "--n-max", "2"])
    assert res.exit_code == 3
    assert res.stdout == "FAIL positive-definite: squared norm fails at degree 1; positive through 0\n"
    assert res.stderr == ""


def test_validate_reports_nonpositive_Q(monkeypatch):
    # Only a wrong exact table can reach Q_n <= 0 before the recurrence's
    # own positivity check; validate then exits 2, where approx exits 3.
    condense = hankel._condense

    def negated_Q_1(a, divide):
        for n, (P, Q) in enumerate(condense(a, divide)):
            yield (P, -Q) if n == 1 else (P, Q)

    monkeypatch.setattr(hankel, "_condense", negated_Q_1)
    res = run_cli(["validate", "--family", "gompertz", "--n-max", "5"])
    assert res.exit_code == 2
    assert res.stdout == ("FAIL positive-Q: positive definiteness fails at degree 1: "
                          "squared norm -7/2 <= 0\n")  # Q_1 / Q_0 = -7/2
    assert res.stderr == ""


def test_validate_reports_lost_orthogonality(skewed_alpha_1):
    res = run_cli(["validate", "--family", "gompertz", "--n-max", "5"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: orthogonality lost: <q_2, q_1> = -7/2\n"


def test_approx_reports_lost_orthogonality(skewed_alpha_1):
    res = run_cli(["approx", "--family", "gompertz", "--n-max", "4"])
    assert res.exit_code == 2
    assert res.stdout == gompertz_table(2)  # rows 0 and 1, before the stop at degree 2
    assert res.stderr == "error: orthogonality lost: <q_2, q_1> = -7/2\n"


@pytest.mark.parametrize("stop", ["mismatch", "orthogonality"])
def test_long_stop_values_are_cut_short(monkeypatch, skew_sweep, skew_alpha, stop):
    # On gamma the exact pairs and residuals run to hundreds of digits by
    # n = 8; each is cut as a moment file's tokens are. The rows before the
    # stop are printed, as for every stop.
    if stop == "mismatch":
        monkeypatch.setattr(driver, "hankel_residues", lambda *args: iter(()))  # all exact
        skew_sweep(8, lambda P, Q: (2 * P, Q))
    else:
        skew_alpha(6)  # <q_7, q_6> = -t_6
    res = run_cli(["approx", "--family", "gamma", "--n-max", "9"])
    rows = 8 if stop == "mismatch" else 7
    assert (res.exit_code, res.stdout) == (2, "".join(
        f"{n} | {GAMMA_ROWS[n][0] or '-'} | {GAMMA_ROWS[n][1]}\n" for n in range(rows)))
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert len(res.stderr) - 1 <= 300


def test_help_screens():
    assert run_cli(["--help"]).exit_code == 0
    for sub in ("approx", "moments", "validate"):
        res = run_cli([sub, "--help"])
        assert res.exit_code == 0
        assert "--family" in res.stdout
        assert "--moments-file" in res.stdout
    assert f"1<=x<={MAX_DIGITS}" in run_cli(["approx", "--help"]).stdout


def test_cli_import_loads_every_package_module():
    # A module that the command line never imports is used only by tests,
    # and such code belongs under tests/.
    package = Path(hankel_approx.__file__).parent
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, hankel_approx.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(package.parent)},
        capture_output=True, text=True, check=True).stdout.split()
    modules = {f"hankel_approx.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__"}
    assert modules <= set(loaded)


def test_cli_imports_no_click_dataclasses_inspect_or_typing():
    # Each of the first four pulls in inspect or typing, which is most of the
    # import time of a command, and pathlib alone takes 5-9 ms (CPython
    # 3.11); json is imported only where JSON is read or written. Run
    # without site (-S), as a site .pth file may load them itself; the
    # command then prints the README's gompertz rows.
    unwanted = {"click", "dataclasses", "inspect", "pathlib", "typing",
                "json", "json.decoder", "json.scanner", "json.encoder", "_json"}
    env = {**os.environ, "PYTHONPATH": str(Path(hankel_approx.__file__).parent.parent)}
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, hankel_approx.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert unwanted.isdisjoint(loaded)
    # A csv run on a built-in family loads none of them either.
    *rows, loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, hankel_approx.cli as cli; "
         "cli.main(sys.argv[1:]); print(*sys.modules)",
         "approx", "--family", "gompertz", "--n-max", "3", "--format", "csv"],
        env=env, capture_output=True, text=True, check=True).stdout.splitlines()
    assert len(rows) == 5 and rows[0] == "n,P,Q,value,gap"
    assert unwanted.isdisjoint(loaded.split())
    res = subprocess.run(
        [sys.executable, "-S", "-m", "hankel_approx.cli", "approx", "--family", "gompertz",
         "--n-max", "3"], env=env, capture_output=True, text=True)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout.splitlines() == [
        f"{n} | {GOMPERTZ_ROWS[n][0]} | {GOMPERTZ_ROWS[n][1]}" for n in range(4)]


def test_closed_stdout_exits_4_without_a_traceback():
    # gamma-both's command prints 69,255 bytes, more than a pipe holds, so
    # closing the pipe after a few bytes stops the child mid-write.
    command = [sys.executable, "-m", "hankel_approx.cli", "approx", "--family", "gamma",
               "--n-max", "13", "--format", "csv"]
    # Buffered, as stdout to a pipe is by default: what the buffer still
    # holds must not raise again in the flush at exit.
    env = {**os.environ, "PYTHONPATH": str(Path(hankel_approx.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, bufsize=0)
    head = child.stdout.read(8)  # at most 8 bytes: the child blocks on the rest
    assert head and b"n,P,Q,value,gap".startswith(head)
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=60) == 4
    # one error line: no traceback, no "Exception ignored" from the flush at exit
    assert stderr == "error: stdout was closed before the output was complete\n"
    # Started with no stdout at all (fd 1 closed), sys.stdout is None.
    res = subprocess.run(command, env=env, stderr=subprocess.PIPE, text=True,
                         preexec_fn=lambda: os.close(1))
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", [
    "approx --family gompertz --n-max 3",
    "validate --family gompertz --n-max 3",
    "moments --family gompertz --count 3",
])
def test_no_stdout_is_a_closed_stdout(command):
    # Started with fd 1 closed, print would drop every row and the command
    # would exit 0: a silent success. It exits 4 with one error line, and a
    # usage error there still exits 2.
    env = {**os.environ, "PYTHONPATH": str(Path(hankel_approx.__file__).parent.parent)}
    shell = f"'{sys.executable}' -m hankel_approx.cli {command} >&-"
    res = subprocess.run(["sh", "-c", shell], env=env, capture_output=True, text=True)
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == "error: stdout was closed before the output was complete\n"
    res = subprocess.run(["sh", "-c", shell + " --no-such-option"], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 2
    assert res.stderr.splitlines()[-1].endswith("error: unrecognized arguments: --no-such-option")
