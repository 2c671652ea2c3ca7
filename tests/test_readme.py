"""The README's examples, run as written.

Every ``$ hankel-approx ...`` block that needs no input file is invoked
in process (``run_cli``) and must print exactly the lines the README
shows, with exit code 0. The one block that reads a moment file runs on
the file contents the README states and must print its rows, then its
``error:`` line, with exit code 3. The Python library block is executed
and must print the value its trailing comment gives, and the names the
README lists as exported must be exactly the package's ``__all__``.
"""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

import hankel_approx

from .conftest import run_cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)

CLI_EXAMPLES = [
    (body.splitlines()[0][2:], "\n".join(body.splitlines()[1:]) + "\n")
    for _, body in BLOCKS
    if body.startswith("$ hankel-approx ") and "--moments-file" not in body
]
FILE_EXAMPLES = [
    (body.splitlines()[0][2:], body.splitlines()[1:])
    for _, body in BLOCKS
    if body.startswith("$ hankel-approx ") and "--moments-file" in body
]
PYTHON_BLOCKS = [body for lang, body in BLOCKS if lang == "python"]


def test_readme_has_examples():
    assert len(CLI_EXAMPLES) >= 5
    assert len(PYTHON_BLOCKS) == 1


@pytest.mark.parametrize("command,expected", CLI_EXAMPLES,
                         ids=[command for command, _ in CLI_EXAMPLES])
def test_cli_example(command, expected):
    argv = shlex.split(command)
    assert argv[0] == "hankel-approx"
    res = run_cli(argv[1:])
    assert res.exit_code == 0, res.stdout
    assert res.stdout == expected


def test_file_example(tmp_path, monkeypatch):
    [(command, lines)] = FILE_EXAMPLES
    argv = shlex.split(command)
    name = argv[argv.index("--moments-file") + 1]
    stated = re.search(rf"`{re.escape(name)}` holding.*?```json\n(.*?)```", README, re.S)
    (tmp_path / name).write_text(stated.group(1))
    monkeypatch.chdir(tmp_path)
    res = run_cli(argv[1:])
    assert res.exit_code == 3
    assert res.stdout == "\n".join(lines[:-1]) + "\n"
    assert res.stderr == lines[-1] + "\n"
    assert res.stderr.startswith("error: ")


def test_library_example():
    code = PYTHON_BLOCKS[0]
    printed = re.search(r"print\(.*\)\s*#\s*(\S+)", code).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue() == printed + "\n"


def test_exported_names_match_readme():
    listed = re.search(r"The package exports .*?\.\n\n", README, re.S).group(0)
    documented = re.findall(r"`(\w+)(?:\(\w*\))?`", listed)
    assert sorted(documented) == sorted(hankel_approx.__all__)
    assert all(hasattr(hankel_approx, name) for name in documented)
