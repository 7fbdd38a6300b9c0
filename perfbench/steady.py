#!/usr/bin/env python3
"""Steadiness check: run every workload on several seeds, twice, and
compare the spreads and medians of the end-to-end metrics with their
bounds.

    python3 perfbench/steady.py --runs 10 [--workload fig1_fleet ...]

A set runs seeds 1..runs, each seed on every chosen workload in turn,
so the workloads share the host's slow and fast stretches. For every
end-to-end metric of every workload it prints each set's median and the
distance between its first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, and marks
OVER a spread of at least a third of the metric's bound in
BENCHMARK.json and DRIFT a set whose median is worse than the first
set's by more than the bound. The exit code is non-zero when a run
fails, reports failed operations, or any metric is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# SETS is how many sets of runs are compared: the second shows whether
# the first set's medians repeat.
SETS = 2


def run(name, seed, seconds):
    """Returns the run's metric values, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"{name} seed {seed}: exit {proc.returncode}", flush=True)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        return None
    return {metric: m["value"] for metric, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    # values[set][workload][metric] is the list of that set's runs.
    values = []
    for s in range(SETS):
        values.append({name: {} for name in names})
        for seed in range(1, args.runs + 1):
            for name in names:
                got = run(name, seed, spec["run_seconds"])
                if got is None:
                    ok = False
                    continue
                for metric, v in got.items():
                    values[s][name].setdefault(metric, []).append(v)
                print(f"set {s + 1} seed {seed} {name}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in sorted(got.items())), flush=True)
    for name in names:
        for metric, m in metrics.items():
            bound = m["bound"]
            first = None
            for s in range(SETS):
                vs = values[s][name].get(metric, [])
                if len(vs) < 2:
                    print(f"{name:14s} {metric:24s} set {s + 1}: fewer than 2 runs")
                    ok = False
                    continue
                med = statistics.median(vs)
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / abs(med)
                marks = []
                if spread >= bound / 3:
                    marks.append("OVER")
                change = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    if worse > bound:
                        marks.append("DRIFT")
                    change = f" vs set 1 {100 * (med - first) / first:+6.1f}%"
                ok = ok and not marks
                flags = change + "".join(" " + mark for mark in marks)
                print(f"{name:14s} {metric:24s} set {s + 1}: n={len(vs):2d} median={med:14.4f} "
                      f"spread={spread:7.2%} (bound/3 {bound / 3:6.2%}){flags}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
