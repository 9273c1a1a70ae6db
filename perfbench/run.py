#!/usr/bin/env python3
"""Build and run the perfbench harness (see perfbench/README.md).

usage: python3 perfbench/run.py --workload crypto-anf|cnf-random|service-mixed
                                --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the harness in
Release mode under .bench_build/perfbench (incremental after the first
run), then runs one measurement. The harness prints one "metric" line per
number and, as its last line, a JSON object with the keys correct,
attempted, failed and metrics; this script passes its output through and
exits with its status (nonzero on a wrong answer). A traced run also writes
its spans to .bench_build/trace-<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
WORKLOADS = ("crypto-anf", "cnf-random", "service-mixed")
RUN_TIMEOUT_S = 170  # one measurement, build excluded
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure and build the harness; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD_ROOT / f"trace-{args.workload}-{args.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        valid = False
    if not valid:
        # Keep a malformed run from ending in something that looks like a
        # result.
        sys.stderr.write(out)
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
