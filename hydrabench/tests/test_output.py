#!/usr/bin/env python3
"""End-to-end self-test of the benchmark binary's printed result.

    python3 test_output.py <path to hydrabench binary> <path to BENCHMARK.json>

Every workload the binary runs (those BENCHMARK.json names, and exact-mem,
which it leaves out as too unsteady on a shared host but which stays
runnable by hand), at a tiny size, under two seeds, untraced and traced,
must pass the correctness gate and print as its last line a result
carrying exactly the metrics BENCHMARK.json names, each with its unit. A
run with a knob that changes the measured program set must refuse to
start.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None
SPEC = None
WORKLOADS = ("exact-mem", "ng-disk", "ng-replica")
TINY = ["--series", "3000", "--queries", "20", "--seconds", "0.1"]


def run(workload, seed, trace, work_dir, env=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--work-dir", work_dir] + TINY
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)


class PrintedResult(unittest.TestCase):

    def setUp(self):
        self.work = tempfile.TemporaryDirectory(dir=os.getcwd())

    def tearDown(self):
        self.work.cleanup()

    def expected(self, trace):
        key = "per_layer" if trace else "end_to_end"
        return {m["name"]: m["unit"] for m in SPEC[key]}

    def test_benchmark_names_only_known_workloads(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertTrue(set(names) <= set(WORKLOADS), names)

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed,
                                      trace=trace):
                        done = run(workload, seed, trace, self.work.name)
                        self.assertEqual(done.returncode, 0, done.stderr)
                        result = json.loads(done.stdout.splitlines()[-1])
                        self.assertEqual(
                            set(result),
                            {"correct", "attempted", "failed", "metrics"})
                        self.assertIs(result["correct"], True)
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        units = {name: m["unit"]
                                 for name, m in result["metrics"].items()}
                        self.assertEqual(units, self.expected(trace))
                        for name, m in result["metrics"].items():
                            self.assertIsInstance(m["value"], (int, float),
                                                  name)

    def test_refuses_knobs_that_change_the_program(self):
        for knob in ("HYDRA_SIMD", "HYDRA_FAULT_SEED",
                     "HYDRA_SIM_IO_DELAY_US"):
            with self.subTest(knob=knob):
                env = dict(os.environ, **{knob: "1"})
                done = run("exact-mem", 1, 0, self.work.name, env=env)
                self.assertNotEqual(done.returncode, 0)
                self.assertNotIn('"correct"', done.stdout)
                self.assertIn(knob, done.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    BINARY = os.path.abspath(sys.argv[1])
    with open(sys.argv[2]) as spec:
        SPEC = json.load(spec)
    unittest.main(argv=sys.argv[:1])
