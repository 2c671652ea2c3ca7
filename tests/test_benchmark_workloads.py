"""The benchmark's workloads, run through the CLI at small sizes.

``perfbench/workloads.py`` gives each benchmark workload as CLI arguments
plus its own check of the output, computed without the package. Running
them here catches a change that breaks a benchmark command (dropping an
option a workload passes, say) before the benchmark itself runs. The
module is imported from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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
    ("gamma_both", 3), ("factorial_det", 5), ("measure_ortho", 4)])
def test_benchmark_workload_passes_its_own_check(workloads, tmp_path, factory, n_max):
    workload = getattr(workloads, factory)(n_max=n_max)
    res = run_cli(workload.prepare(1, tmp_path))
    assert workload.check(res.exit_code, res.stdout) is None, res.stderr
