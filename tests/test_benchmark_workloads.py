"""The benchmark's workloads, run through the CLI at small sizes and at its own.

``perfbench/workloads.py`` gives each benchmark workload as CLI arguments
plus its own check of the output, computed without the package. Running
them here catches a change that breaks a benchmark command (dropping an
option a workload passes, say) before the benchmark itself runs, and
checks the recurrence on the inputs the benchmark times. The
module is imported from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hankel_approx import cli, hankel, moments

from .conftest import run_cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # Importing the module lifts the int/str digit limit for the whole
    # process; put back the limit the package set. Its dataclass needs the
    # module in sys.modules while it runs.
    limit = sys.get_int_max_str_digits()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, module)
        try:
            spec.loader.exec_module(module)
        finally:
            sys.set_int_max_str_digits(limit)
    return module


@pytest.mark.parametrize("factory, n_max", [
    ("gamma_both", 3), ("factorial_det", 5), ("measure_ortho", 4),
    # the sizes the benchmark runs
    ("gamma_both", 13), ("measure_ortho", 15)])
def test_benchmark_workload_passes_its_own_check(workloads, tmp_path, factory, n_max):
    workload = getattr(workloads, factory)(n_max=n_max)
    res = run_cli(workload.prepare(1, tmp_path))
    assert workload.check(res.exit_code, res.stdout) is None, res.stderr


def test_benchmark_calls_into_the_package_outside_the_cli(capsys):
    """Every call that ``perfbench/`` makes into the package without the
    command line, made as it makes it.

    ``perfbench/test_perfbench.py`` reads single determinants through
    ``hankel.hankel_P`` and ``hankel_Q``, the gompertz reference through
    ``reference.as_fraction()`` and moments through ``gamma_moment``;
    ``perfbench/run.py --trace 1`` runs a command through click's entry
    point ``cli.main.main``. None of them serves the package itself, so a
    change that trims the package fails here before it breaks the
    benchmark. ROADMAP item 3 moves the benchmark off these names and
    deletes this test together with them.
    """
    seq = moments.gompertz_sequence()
    assert (hankel.hankel_P(seq, 1), hankel.hankel_Q(seq, 1)) == (4, 7)
    assert seq.reference.as_fraction() == Fraction(5963473623, 10**10)
    assert moments.gamma_moment(1) == Fraction(1, 2)
    code = cli.main.main(args=["approx", "--family", "gompertz", "--n-max", "1"],
                         prog_name="hankel-approx", standalone_mode=False)
    assert code is None
    assert capsys.readouterr().out == "0 | 1/2 | 0.5000000000\n1 | 4/7 | 0.5714285714\n"
