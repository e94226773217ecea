#!/usr/bin/env python3
"""A/A tool: run the benchmark repeatedly on unchanged code and report the spread.

For each workload it runs `run.py` N times (each time with another seed, the
way the benchmark driver does, or with `--fixed-seed` the same seed, so that
nothing but time varies) and prints, per end-to-end metric, the median, the
quartiles and the relative spread (distance between the first and third
quartile as a share of the median). A spread above a third of the metric's
bound in BENCHMARK.json is marked `~`, above the bound itself `!`.

Usage (from the repository root):
    python3 crates/e0/aa.py [--runs 10] [--first-seed 1] [--fixed-seed] [--workload NAME]...
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def run_once(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {done.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true", help="repeat one seed instead of stepping it")
    parser.add_argument("--workload", action="append", help="only these workloads (default: all)")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for workload in workloads:
        seeds = [args.first_seed + (0 if args.fixed_seed else i) for i in range(args.runs)]
        runs = [run_once(bench, workload, seed) for seed in seeds]
        print(f"{workload}  ({args.runs} runs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "!" if spread > metric["bound"] else "~" if spread > metric["bound"] / 3 else " "
            flagged += mark == "!" and metric["name"] != "setup_s"
            print(f"  {metric['name']:<14} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.1%}{mark} {metric['bound']:>6.0%}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
