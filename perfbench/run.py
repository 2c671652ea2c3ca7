"""Benchmark the hankel-approx CLI end to end (--trace 0) or module by module (--trace 1).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload gamma-both --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

--trace 0 is a closed loop with one client: each operation is one CLI
invocation in a fresh child process (``hankel_approx.cli`` run as
``__main__`` with ``src`` on the path), started only after the previous one
exited. A round is one operation, then two timed imports of
``hankel_approx.cli`` in fresh interpreters (``setup_s``), then a
calibration: a fixed pure-Python big-integer loop timed in this process. Rounds
repeat until --seconds have passed. Every operation's output is checked (see
workloads.py).

The speed of a core of a shared host drifts by 10-30% over tens of seconds,
CPU time as much as wall time. So every time the round measured is scaled
by CALIBRATION_REFERENCE_S over the mean CPU time of one calibration loop in
the calibrations just before and just after it: the reported times are
seconds on a core that runs the loop in CALIBRATION_REFERENCE_S. The loop's
CPU time, not its wall time, sets the scale, so that a short preemption of
this process during a calibration does not rescale a whole round. The
unscaled medians are printed alongside.
Both modes pin the pure-Python Bareiss kernel (HANKEL_APPROX_PURE=1), so a
compiled extension left in the tree cannot change what is measured.

--trace 1 runs the same operation in-process three times: untraced, traced
(spans around each module's public calls, see spans.py) and under
tracemalloc. It reports the per-module metrics and the tracing overhead
(traced minus untraced wall time) and writes the spans to .bench_work/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import spans
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_PROBES_PER_ROUND = 2
CALIBRATION_TERMS = 100
# About the median wall time of one calibration loop on the shared 2-CPU
# x86-64 host (Python 3.11) that the reference figures in README.md come from.
CALIBRATION_REFERENCE_S = 0.055
OP_TIMEOUT_S = 150
WORK_DIR = Path(".bench_work")


class Tally:
    """Attempted/failed operations; a failure other than the workload's known
    fault makes the run incorrect."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def record(self, code: int, stdout: str) -> None:
        self.attempted += 1
        try:
            reason = self.workload.check(code, stdout)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is None:
            return
        self.failed += 1
        if reason != self.workload.known_fault:
            self.unexpected.append(reason)
            print(f"{self.workload.name}: operation failed: {reason}", file=sys.stderr)


def child_env(src: Path) -> dict:
    env = dict(os.environ, HANKEL_APPROX_PURE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


# Runs the CLI exactly as ``python -m hankel_approx.cli ARGS`` does, then writes
# the process's peak resident set (VmHWM, kB) to the file named by argv[1].
# ru_maxrss from wait4 would not do: Python starts children with vfork, and
# Linux then folds the benchmark process's own peak into the child's.
CLI_WITH_PEAK_RSS = """\
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def write_peak():
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(write_peak)
runpy.run_module("hankel_approx.cli", run_name="__main__", alter_sys=True)
"""


def run_child(argv, env, out_path: Path):
    """Run one child to exit. Returns (exit code, stdout, wall s, cpu s)."""
    with open(out_path, "w+b") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode()
    return proc.returncode, stdout, wall, usage.ru_utime + usage.ru_stime


def calibration_loop() -> int:
    """Fixed pure-Python work of the program's kind: products, remainders,
    gcds and Fraction sums of integers of 6000-7000 bits."""
    a, b = 3 ** 4000 + 7, 5 ** 3000 + 11
    total = 0
    for i in range(CALIBRATION_TERMS):
        total += (a * b) % (b + i)
        a, b = b, a + i
        total += (Fraction(a, b + 1) + Fraction(b, a + 3)).denominator % 2
    return total


def calibrate(loops: int) -> float:
    """CPU seconds per calibration loop, over ``loops`` loops."""
    start = time.process_time()
    for _ in range(loops):
        calibration_loop()
    return (time.process_time() - start) / loops


def measure_e2e(workload, cli_args, src: Path, seconds: float, tally: Tally) -> dict:
    """Medians per end-to-end metric, scaled to the reference core; samples are
    one per operation (setup_s: one per import)."""
    env = child_env(src)
    import_argv = [sys.executable, "-c", "import hankel_approx.cli"]
    out_path = WORK_DIR / f"{workload.name}.out"
    peak_path = WORK_DIR / f"{workload.name}.peak"
    op_argv = [sys.executable, "-c", CLI_WITH_PEAK_RSS, str(peak_path), *cli_args]
    run_child(import_argv, env, out_path)  # fills the bytecode cache, untimed
    calibration_loop()  # warm-up, untimed
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    raw = {"wall_s": [], "cpu_s": [], "setup_s": [], "calibration_s": []}
    start = time.perf_counter()
    before = calibrate(workload.calibration_loops)
    while True:
        peak_path.unlink(missing_ok=True)
        code, stdout, wall, cpu = run_child(op_argv, env, out_path)
        tally.record(code, stdout)
        probes = []
        for _ in range(SETUP_PROBES_PER_ROUND):
            probe_code, _, probe_wall, _ = run_child(import_argv, env, out_path)
            if probe_code != 0:
                raise SystemExit(f"importing hankel_approx.cli failed with exit code {probe_code}")
            probes.append(probe_wall)
        after = calibrate(workload.calibration_loops)
        scale = 2 * CALIBRATION_REFERENCE_S / (before + after)
        samples["wall_s"].append(wall * scale)
        samples["cpu_s"].append(cpu * scale)
        samples["setup_s"].extend(p * scale for p in probes)
        if peak_path.exists():  # not written when the child was killed
            samples["peak_rss_mb"].append(int(peak_path.read_text()) / 1024)
        raw["wall_s"].append(wall)
        raw["cpu_s"].append(cpu)
        raw["setup_s"].extend(probes)
        raw["calibration_s"].append(after)
        before = after
        if time.perf_counter() - start >= seconds:
            break
    print(f"workload {workload.name}: {len(samples['wall_s'])} operations, unscaled medians: "
          + "  ".join(f"{name} {statistics.median(values):.4f} s" for name, values in raw.items()))
    return {name: statistics.median(values) for name, values in samples.items()}


def run_in_process(cli, cli_args, tracer=None):
    """Invoke the click command group in this process. Returns (exit code, stdout, wall s)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        index = tracer.open("cli") if tracer else None
        try:
            code = cli.main.main(args=list(cli_args), prog_name="hankel-approx",
                                 standalone_mode=False) or 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if tracer:
                tracer.close(index)
    return code, buf.getvalue(), time.perf_counter() - start


def measure_traced(workload, cli_args, src: Path, seed: int, tally: Tally) -> dict:
    sys.path.insert(0, str(src))
    os.environ["HANKEL_APPROX_PURE"] = "1"
    start = time.perf_counter()
    import hankel_approx.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hankel_approx was imported from {cli.__file__}, not from {src}")

    code, stdout, untraced_s = run_in_process(cli, cli_args)
    tally.record(code, stdout)

    tracer = spans.Tracer()
    tracer.install()
    try:
        code, stdout, traced_s = run_in_process(cli, cli_args, tracer)
    finally:
        tracer.uninstall()
    tally.record(code, stdout)

    tracemalloc.start()
    try:
        code, stdout, _ = run_in_process(cli, cli_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.record(code, stdout)

    spans_path = WORK_DIR / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps({"absent": tracer.absent, "spans": tracer.spans}))
    if tracer.absent:
        print(f"absent (not traced): {', '.join(tracer.absent)}")
    print(f"spans written to {spans_path}")

    return {
        "cli.import_s": import_s,
        **tracer.metrics(),
        "driver.peak_alloc_mb": peak / 2 ** 20,
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, tree: Path,
                 units: dict) -> dict:
    """Measure one workload; ``units`` maps each metric to report to its unit."""
    src = tree / "src"
    if not (src / "hankel_approx" / "cli.py").is_file():
        raise SystemExit(f"no hankel_approx sources under {src}")
    workload = workloads.FACTORIES[name]()
    WORK_DIR.mkdir(exist_ok=True)
    cli_args = workload.prepare(seed, WORK_DIR)
    tally = Tally(workload)
    if trace:
        values = measure_traced(workload, cli_args, src, seed, tally)
    else:
        values = measure_e2e(workload, cli_args, src, seconds, tally)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {name}: hankel-approx {' '.join(cli_args)}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}"
          + (f"  (known fault: {workload.known_fault})" if workload.known_fault and tally.failed
             else ""))
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:>16.6f} {m['unit']}")
    return {"correct": not tally.unexpected, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.FACTORIES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", type=Path, default=Path("."),
                        help="checkout whose src/ is benchmarked (default: current directory)")
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"]
             for m in benchmark["per_layer" if args.trace else "end_to_end"]}

    names = list(workloads.FACTORIES) if args.workload == "all" else [args.workload]
    if args.trace and len(names) > 1:
        parser.error("--trace 1 runs one workload per process")
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), args.tree,
                                  units) for name in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
