#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

    python3 hydrabench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hydrabench/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary under .bench_build/ (a Release build of
the checkout's own sources); later runs only rebuild what changed. The
binary's last line of standard output is the result (see
hydrabench/DESIGN.md).
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(BUILD_DIR, "work")
WORKLOADS = ("exact-mem", "ng-disk", "ng-replica")
# Compiler and test temporaries stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))


def fail(message):
    print("hydrabench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    """Configures (once) and builds `targets`; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no library sources here (missing %s); run from the root "
                 "of a full checkout" % needed)
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                 + list(targets))
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=ENV)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["hydrabench", "hydrabench_selftest"])
        unit = subprocess.run([os.path.join(BUILD_DIR,
                                            "hydrabench_selftest")],
                              cwd=BUILD_DIR, env=ENV)
        output = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "tests",
                                          "test_output.py"),
             os.path.join(BUILD_DIR, "hydrabench"),
             os.path.join(ROOT, "BENCHMARK.json")],
            cwd=BUILD_DIR, env=ENV)
        sys.exit(unit.returncode or output.returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    build(["hydrabench"])
    os.makedirs(WORK_DIR, exist_ok=True)
    binary = [os.path.join(BUILD_DIR, "hydrabench"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--work-dir", WORK_DIR]
    sys.exit(subprocess.run(binary, env=ENV).returncode)


if __name__ == "__main__":
    main()
