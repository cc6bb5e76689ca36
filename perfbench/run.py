#!/usr/bin/env python3
"""Build and run the machvm benchmark from the root of a checkout.

    python3 perfbench/run.py --workload churn|compile|smp --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (and the simulator
library it compiles from src/) into .bench_build/perfbench; later runs
only rebuild what changed.  Build output goes to stderr.  The benchmark
binary prints a table and, as its last line, the JSON result.  A traced
run also writes the spans of its first traced pass to
.bench_build/perfbench/spans-<workload>-<seed>.csv.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return subprocess.run([build("machbench_selftest")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    cmd = [build("machbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.csv" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
