#!/usr/bin/env python3
"""Alternated benchmark pairs against a parent rev, appended to BENCH_e0.json.

Each pair runs `python3 crates/e0/run.py` once on the parent and once on the
working tree, same workload and seed (pair i runs seed i, as aa.py steps its
seeds), and alternates which side goes first. Each side
runs its own checkout's run.py with its own CARGO_TARGET_DIR, so neither reuses
the other's build. Both sides are exported with `git archive` into a temporary
directory (under $TMPDIR), which leaves the repository's .git untouched: the
parent's commit, and a snapshot of the working tree's tracked files, staged or
not, as they stand when the tool starts (`git add` a new file first).

The tool stops at the first run that reads `correct: false` or a failed op.
Per workload it appends one row to BENCH_e0.json at the repository root:
medians and quartiles of every end-to-end metric on both sides beside each
side's raw per-run values (`runs`, in seed order, so later rows can pool A/A
spread), the pairs the rev won, and a verdict from BENCHMARK.json's bound: `worse` when the rev's
median is worse by more than the bound, `better` when it won at least nine
pairs in ten and its median moved by more than the parent's interquartile
distance, `unresolved` when either side's interquartile distance exceeds the
bound (unless every rev run beat every parent run), else `within`. --trace
runs traced and adds the per-layer medians; --aa runs the working tree against
itself, to record the box's spread.

Usage (from the repository root):
    python3 scripts/pairs.py --parent <rev> [--pairs 10] [--workload NAME]... [--trace] [--aa]
    python3 scripts/pairs.py --self-test
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """A checkout of `rev`'s committed files in `into`."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into


def bench_runner(tree, target, seconds, trace):
    """Run one workload at one seed in `tree`: its metrics, or exit on a wrong run."""

    def run(workload, seed):
        cmd = ["python3", "crates/e0/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        return parse_run(done, f"{tree}: {workload} seed {seed}")

    return run


def parse_run(done, label):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{label}: correct {result['correct']}, failed {result['failed']}: stopping")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(metric, parent, rev):
    """One end-to-end metric over the pairs: both sides' quartiles, wins, verdict."""
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    r1, rm, r3 = quartiles(rev)
    wins = sum((r < p) if lower else (r > p) for p, r in zip(parent, rev))
    gain = (pm - rm) if lower else (rm - pm)
    apart = max(rev) < min(parent) if lower else min(rev) > max(parent)
    spread = max((q3 - q1) / abs(m) if m else 0 for q1, m, q3 in ((p1, pm, p3), (r1, rm, r3)))
    if pm and -gain / abs(pm) > metric["bound"]:
        verdict = "worse"
    elif gain > 0 and wins >= 0.9 * len(parent) and gain > p3 - p1:
        verdict = "better"
    elif spread > metric["bound"] and not apart:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": {"q1": p1, "median": pm, "q3": p3, "runs": list(parent)},
            "rev": {"q1": r1, "median": rm, "q3": r3, "runs": list(rev)}, "wins": wins, "verdict": verdict}


def run_pairs(bench, workload, pairs, parent_run, rev_run, trace):
    """Alternate the two sides `pairs` times; the row this appends."""
    runs = {"parent": [], "rev": []}
    for seed in range(1, pairs + 1):
        order = [("parent", parent_run), ("rev", rev_run)]
        for side, run in order if seed % 2 else order[::-1]:
            runs[side].append(run(workload, seed))
    # A traced run reports per-layer metrics only (its end-to-end
    # latencies are `e0.untraced_op_*`).
    def values(name):
        if all(name in r for r in runs["parent"] + runs["rev"]):
            return [r[name] for r in runs["parent"]], [r[name] for r in runs["rev"]]

    row = {"workload": workload, "pairs": pairs, "seeds": [1, pairs], "metrics": {}}
    for metric in bench["end_to_end"]:
        if values(metric["name"]):
            row["metrics"][metric["name"]] = summarize(metric, *values(metric["name"]))
    if trace:
        row["layers"] = {m["name"]: dict(zip(runs, map(statistics.median, values(m["name"]))))
                         for m in bench["per_layer"] if values(m["name"])}
    return row


def box():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def append_rows(path, rows):
    """One row a line, so each run adds lines and changes none."""
    history = json.loads(path.read_text()) if path.exists() else []
    path.write_text("[\n" + ",\n".join(json.dumps(r) for r in history + rows) + "\n]\n")


def print_row(row):
    print(f"{row['workload']}  ({row['pairs']} pairs)")
    for name, m in row["metrics"].items():
        p, r = m["parent"], m["rev"]
        print(f"  {name:<13} parent {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
              f"  rev {r['median']:>10.4g} [{r['q1']:.4g}, {r['q3']:.4g}]  {m['wins']}/{row['pairs']} {m['verdict']}")
    for name, m in row.get("layers", {}).items():
        if m["parent"] or m["rev"]:
            print(f"  {name:<27} parent {m['parent']:>10.4g}  rev {m['rev']:>10.4g}")


def self_test():
    """The tool on a stub command printing fixed JSON lines."""
    bench = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                            {"name": "op_p95_ms", "better": "lower", "bound": 0.25}],
             "per_layer": [{"name": "noa.firemap_ms"}]}
    values = {"parent": [(800, 2.9), (810, 3.0), (790, 2.8), (805, 2.9)],
              "rev": [(1050, 2.0), (1060, 4.0), (1040, 2.1), (1055, 2.0)]}
    calls = []

    def stub(side, correct=True):
        def run(workload, seed):
            calls.append((side, seed))
            ops, p95 = values[side][seed - 1]
            line = {"correct": correct, "failed": 0, "metrics": {
                "ops_per_s": {"value": ops}, "op_p95_ms": {"value": p95}, "noa.firemap_ms": {"value": p95 / 2}}}
            cmd = ["python3", "-c", f"print('noise'); print({json.dumps(json.dumps(line))})"]
            return parse_run(subprocess.run(cmd, capture_output=True, text=True), f"stub {side}")
        return run

    bench["end_to_end"].append({"name": "setup_s", "better": "lower", "bound": 0.25})
    row = run_pairs(bench, "w", 4, stub("parent"), stub("rev"), True)
    assert "setup_s" not in row["metrics"], row
    assert calls == [("parent", 1), ("rev", 1), ("rev", 2), ("parent", 2),
                     ("parent", 3), ("rev", 3), ("rev", 4), ("parent", 4)], calls
    ops, p95 = row["metrics"]["ops_per_s"], row["metrics"]["op_p95_ms"]
    assert ops["parent"]["median"] == 802.5 and ops["rev"]["median"] == 1052.5, ops
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == (792.5, 808.75), ops
    assert ops["parent"]["runs"] == [800, 810, 790, 805] and p95["rev"]["runs"] == [2.0, 4.0, 2.1, 2.0], row
    assert ops["wins"] == 4 and ops["verdict"] == "better", ops
    # One pair in four lost, and its outlier spreads the rev's runs past the bound.
    assert p95["wins"] == 3 and p95["rev"]["median"] == 2.05 and p95["verdict"] == "unresolved", p95
    assert row["layers"]["noa.firemap_ms"] == {"parent": 1.45, "rev": 1.025}, row["layers"]
    worse = summarize({"better": "lower", "bound": 0.25}, [1.0, 1.0, 1.1], [1.4, 1.3, 1.5])
    assert worse["verdict"] == "worse" and worse["wins"] == 0, worse
    same = summarize({"better": "lower", "bound": 0.25}, [1.0, 1.02, 0.98, 1.0], [0.99, 1.03, 1.0, 0.97])
    assert same["verdict"] == "within" and same["wins"] == 2, same
    try:
        run_pairs(bench, "w", 1, stub("parent"), stub("rev", correct=False), False)
        raise AssertionError("a run reading correct: false did not stop the tool")
    except SystemExit as stop:
        assert "correct False" in str(stop), stop
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "BENCH_e0.json"
        append_rows(path, [{"a": 1}])
        append_rows(path, [{"b": 2}])
        assert json.loads(path.read_text()) == [{"a": 1}, {"b": 2}]
    print("pairs.py self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", help="the rev to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="only these workloads (default: all)")
    parser.add_argument("--trace", action="store_true", help="traced runs; record per-layer medians")
    parser.add_argument("--aa", action="store_true", help="run the working tree against itself")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.aa and not args.parent:
        parser.error("--parent is required unless --aa")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        # The working tree is snapshotted once, so edits while the pairs
        # run do not leak into them.
        snapshot = git("stash", "create") or "HEAD"
        rev_tree = export(snapshot, scratch / "rev")
        rev_name = git("rev-parse", "HEAD") + ("" if snapshot == "HEAD" else "+dirty")
        rev_run = bench_runner(rev_tree, scratch / "rev-target", bench["run_seconds"], args.trace)
        if args.aa:
            parent_name, parent_run = rev_name, rev_run
        else:
            parent_name = git("rev-parse", args.parent)
            parent_tree = export(args.parent, scratch / "parent")
            parent_run = bench_runner(parent_tree, scratch / "parent-target", bench["run_seconds"], args.trace)
        stamp = {"rev": rev_name, "parent": parent_name, "aa": args.aa, "traced": args.trace,
                 "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                 "box": box(), "seconds": bench["run_seconds"]}
        for workload in workloads:
            row = {**stamp, **run_pairs(bench, workload, args.pairs, parent_run, rev_run, args.trace)}
            print_row(row)
            append_rows(ROOT / "BENCH_e0.json", [row])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
