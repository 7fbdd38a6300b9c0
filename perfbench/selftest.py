#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

1. The Go tests of perfbench (seeded input digests, planted ground truth).
2. The output contract: for every workload, with --trace 0 and 1, the
   command exits 0 and its last line names every metric BENCHMARK.json
   lists for that mode exactly once, with its unit and a finite value,
   and reports zero failed operations.
3. A directory holding only BENCHMARK.json and perfbench/ cannot build
   the benchmark: the command exits non-zero without a result line.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

def main():
    failures = []
    go = subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=run.go_env())
    if go.returncode != 0:
        failures.append("go test failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", "3", "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{label}: exit {proc.returncode}")
                continue
            problems = run.check(lines[-1], run.expected_metrics(trace))
            result = json.loads(lines[-1])
            if result["failed"] or not result["correct"]:
                problems.append(f"{result['failed']} failed operations")
            failures += [f"{label}: {p}" for p in problems]
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")
    empty = os.path.join(run.BUILD, "selftest-empty")
    shutil.rmtree(empty, ignore_errors=True)
    os.makedirs(empty)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1_fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=empty, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("benchmark ran without the repository's sources")
    shutil.rmtree(empty, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("FAIL" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
