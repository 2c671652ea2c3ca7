"""The benchmark's workloads, run through the CLI at small sizes and at its own.

``perfbench/workloads.py`` gives each benchmark workload as CLI arguments
plus its own check of the output, computed without the package. Running
them here catches a change that breaks a benchmark command (dropping an
option a workload passes, say) before the benchmark itself runs, and
checks the recurrence on the inputs the benchmark times. The workloads
also run under ``perfbench/spans.py``'s tracer, as ``perfbench/run.py
--trace 1`` runs them. Both modules are imported from their files and left
unchanged.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction

import pytest

from hankel_approx import cli, hankel, moments, orthopoly

from .conftest import PERFBENCH, measure_ortho_moments, run_cli

SPANS = PERFBENCH / "spans.py"


@pytest.mark.parametrize("factory, n_max", [
    ("gamma_both", 3), ("factorial_det", 5), ("measure_ortho", 4),
    # the sizes the benchmark runs
    ("gamma_both", 13), ("factorial_det", 35), ("measure_ortho", 15)])
def test_benchmark_workload_passes_its_own_check(workloads, tmp_path, factory, n_max):
    workload = getattr(workloads, factory)(n_max=n_max)
    res = run_cli(workload.prepare(1, tmp_path))
    assert workload.check(res.exit_code, res.stdout) is None, res.stderr


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("factory, n_max", [
    ("gamma_both", 3), ("factorial_det", 5), ("measure_ortho", 4)])
def test_benchmark_workload_passes_its_own_check_when_traced(
        workloads, spans, tmp_path, factory, n_max):
    # The tracer replaces the package's functions by name with wrappers that
    # read what they return; a generator under a traced name would be
    # drained by its wrapper, and the command would print no rows.
    workload = getattr(workloads, factory)(n_max=n_max)
    args = workload.prepare(1, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = run_cli(args)
    finally:
        tracer.uninstall()
    assert workload.check(res.exit_code, res.stdout) is None, res.stderr
    if factory == "gamma_both":
        # The tracer sees the moments layer only through the functions it
        # wraps: a gamma sequence that stopped calling gamma_moment would
        # leave the layer unmeasured.
        assert tracer.metrics()["moments.max_bits"] > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_recurrence_equals_determinant_sweep_on_measure_ortho(workloads, seed):
    # The moments of measure-ortho's file, read exactly: both routes give
    # the same (P_n, Q_n) at every n <= 15, not only the same approximant.
    n_max = 15
    seq = measure_ortho_moments(workloads, seed, n_max)
    pairs = list(orthopoly.ortho_sweep(seq, n_max))
    assert len(pairs) == n_max + 1
    assert pairs == list(hankel.hankel_sweep(seq, n_max))


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
