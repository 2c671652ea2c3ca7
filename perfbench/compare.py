"""Collect result sets from perfbench/run.py and judge one set against another.

    # one set: every workload once per seed, on the tree given
    python3 perfbench/compare.py collect --tree . --seeds 1-10 --out set-a.json

    # parent/change pairs, alternating which side runs first
    python3 perfbench/compare.py pairs --parent ../parent --change . --pairs 10 --out-dir cmp/

    # verdicts per workload and end-to-end metric
    python3 perfbench/compare.py judge cmp/parent.json cmp/change.json

Both sides run this file's run.py, so the benchmark code and settings are
identical; only the ``src/`` tree under test differs. A result file
records the git sha of its tree, the Python version and the CPU count.

Verdicts (better/worse follow each metric's direction in BENCHMARK.json):

* unresolved   -- either side's interquartile range, as a share of its median,
                  exceeds the metric's bound (unless every change run beats
                  every parent run);
* gain         -- the change is better in at least 9/10 of the pairs, the
                  medians differ by more than the parent's interquartile range
                  and the change fails no larger share of its operations;
* regression   -- the change's median is worse than the parent's by more
                  than the bound;
* within bound -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def beats(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def wins(parent, change, better: str) -> int:
    """Pairs in which the change is better; ties count for neither side."""
    return sum(beats(c, p, better) for p, c in zip(parent, change))


def verdict(parent, change, bound: float, better: str = "lower",
            fails_more: bool = False) -> str:
    """``fails_more``: the change failed a larger share of its operations."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    every_run_better = all(beats(c, p, better) for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not every_run_better:
        return "unresolved"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if (not fails_more and wins(parent, change, better) >= 0.9 * min(len(parent), len(change))
            and beats(c_med, p_med, better) and abs(c_med - p_med) > q3 - q1):
        return "gain"
    if beats(p_med, c_med, better) and abs(c_med - p_med) > bound * p_med:
        return "regression"
    return "within bound"


def failed_share(runs) -> Fraction:
    return Fraction(sum(r["result"]["failed"] for r in runs),
                    sum(r["result"]["attempted"] for r in runs))


def judge(parent: dict, change: dict, benchmark: dict) -> list[str]:
    lines = []
    for workload in parent["runs"]:
        p_runs, c_runs = parent["runs"][workload], change["runs"].get(workload)
        if not c_runs:
            lines.append(f"{workload}: no runs on the change side")
            continue
        lines.append(f"{workload} ({len(p_runs)} parent runs, {len(c_runs)} change runs)")
        p_share, c_share = failed_share(p_runs), failed_share(c_runs)
        for m in benchmark["end_to_end"]:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs]
            lines.append(
                f"  {m['name']:12s} parent {statistics.median(p):10.4f} (spread {spread(p):6.1%})"
                f"  change {statistics.median(c):10.4f} (spread {spread(c):6.1%})"
                f"  change/parent {statistics.median(c) / statistics.median(p):6.3f}"
                f"  wins {wins(p, c, m['better'])}/{min(len(p), len(c))}  bound {m['bound']:.0%}"
                f"  -> {verdict(p, c, m['bound'], m['better'], c_share > p_share)}")
        lines.append(f"  failed share parent {p_share} change {c_share} -> "
                     + ("same" if p_share == c_share else "DIFFERS"))
        incorrect = [r["seed"] for r in p_runs + c_runs if not r["result"]["correct"]]
        if incorrect:
            lines.append(f"  incorrect output on seeds {incorrect}")
    return lines


def tree_meta(tree: Path, seconds: int) -> dict:
    def git(*args):
        try:
            return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--untracked-files=no"):
        sha += "+dirty"
    return {"tree": str(tree), "git_sha": sha, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "seconds": seconds}


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tree", str(tree), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} on {tree} failed:\n{proc.stderr}")
    print(f"{tree} {workload} seed {seed}: {proc.stdout.splitlines()[-1]}", file=sys.stderr)
    return {"seed": seed, "result": json.loads(proc.stdout.splitlines()[-1])}


def parse_seeds(text: str) -> list[int]:
    """"1-10" or "1,1,2-4" -> seeds in order; a repeated seed reruns the same inputs."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    benchmark = load_benchmark()
    all_workloads = ",".join(w["name"] for w in benchmark["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("collect", "pairs"):
        sub.add_parser(mode).add_argument("--workloads", default=all_workloads)
    collect = sub.choices["collect"]
    collect.add_argument("--tree", type=Path, default=Path("."))
    collect.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    collect.add_argument("--out", type=Path, required=True)
    pairs = sub.choices["pairs"]
    pairs.add_argument("--parent", type=Path, required=True)
    pairs.add_argument("--change", type=Path, required=True)
    pairs.add_argument("--pairs", type=int, default=MIN_PAIRS)
    pairs.add_argument("--out-dir", type=Path, required=True)
    j = sub.add_parser("judge")
    j.add_argument("parent", type=Path)
    j.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    if args.mode == "judge":
        parent, change = (json.loads(p.read_text()) for p in (args.parent, args.change))
        for side, doc in (("parent", parent), ("change", change)):
            print(f"{side}: {json.dumps(doc['meta'])}")
        print("\n".join(judge(parent, change, benchmark)))
        return 0

    names = args.workloads.split(",")
    seconds = benchmark["run_seconds"]
    if args.mode == "collect":
        doc = {"meta": tree_meta(args.tree, seconds),
               "runs": {w: [run_once(args.tree.resolve(), w, s, seconds)
                            for s in args.seeds] for w in names}}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1))
        return 0

    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    given = {"parent": args.parent, "change": args.change}
    sides = {side: tree.resolve() for side, tree in given.items()}
    docs = {side: {"meta": tree_meta(tree, seconds), "runs": {w: [] for w in names}}
            for side, tree in given.items()}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            for side in order:
                docs[side]["runs"][w].append(
                    run_once(sides[side], w, i + 1, seconds))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for side, doc in docs.items():
        (args.out_dir / f"{side}.json").write_text(json.dumps(doc, indent=1))
    print("\n".join(judge(docs["parent"], docs["change"], benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
