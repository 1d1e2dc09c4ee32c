#!/usr/bin/env python3
"""End-to-end period-loop benchmark: build, run one workload, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-ingest-2k --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (which compiles the libraries from src/) into
.bench_build/perfbench, runs the cava_e2e_bench driver for one workload and
prints its report. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1. The exit
code is non-zero when the build fails, an output check fails or the result
does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "cava_e2e_bench")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        got = {name: m["unit"] for name, m in metrics.items()}
    except (ValueError, KeyError, TypeError) as e:
        print(f"run.py: unreadable result line: {e}", file=sys.stderr)
        return 1
    if got != expected:
        print(f"run.py: metrics {sorted(got)} do not match BENCHMARK.json "
              f"{sorted(expected)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    if proc.returncode != 0 or result.get("correct") is not True:
        print(f"run.py: output checks failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
