#!/usr/bin/env python3
"""Build and run the perfbench benchmark, then check its result line.

Run from the repository root:

    python3 perfbench/run.py --workload fig1_fleet --seed 1 --seconds 30 --trace 0

The Go benchmark (a module of its own in this directory, built against the
repository through a replace directive) is compiled into .bench_build/ with
its build cache there too, so a run reads and writes only inside the
checkout. The last line of standard output is the benchmark's JSON result;
it is printed only when it names every metric BENCHMARK.json lists for the
run (end_to_end with --trace 0, per_layer with --trace 1) exactly once,
each with its unit and a finite value. Otherwise the script exits non-zero.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # The go command's telemetry counters and env file live under the
        # user config directory; keep them in the checkout too.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    return subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, timeout=850,
    ).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dups = sorted({k for k in keys if keys.count(k) > 1})
    if dups:
        raise ValueError(f"duplicate keys {dups}")
    return dict(pairs)


def check(line, expected):
    """Returns the problems with a result line, or an empty list."""
    try:
        result = json.loads(line, object_pairs_hook=unique_keys)
    except ValueError as e:
        return [f"result line is not JSON with unique keys: {e}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else type(result)}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} is not a value with a unit")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"metric {name} value {v!r} is not a finite number")
        if name in expected and m["unit"] != expected[name]:
            problems.append(f"metric {name} unit {m['unit']!r}, want {expected[name]!r}")
    return problems


def main(argv):
    trace = 0
    for i, a in enumerate(argv):
        if a == "--trace" and i + 1 < len(argv):
            trace = int(argv[i + 1])
        elif a.startswith("--trace="):
            trace = int(a.split("=", 1)[1])
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark exited with code {proc.returncode}", file=sys.stderr)
        return 1
    problems = check(lines[-1], expected_metrics(trace))
    for line in lines[:-1]:
        print(line)
    if problems:
        for p in problems:
            print(f"perfbench: malformed result: {p}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
