#!/usr/bin/env python3
"""Self-tests for the benchmark: every correctness check trips.

    python3 perfbench/test_checks.py

Each case runs sstbench at a small --scale with one checked quantity
corrupted through --inject and expects failed operations and
"correct": false; the clean cases expect neither. The compare.py cases
feed it synthetic result sets. Builds sstbench first, like run.py.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = {"sst_commercial": "0.05", "dependent_chain": "0.25",
         "rock16_coherent": "0.05", "sampled_profile": "0.05"}


def bench(workload, trace=0, inject=None):
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT,
                                                      ".bench_build")) as d:
        cmd = [run.BINARY, "--workload", workload, "--seed", "7",
               "--seconds", "0.1", "--trace", str(trace),
               "--scale", SCALE[workload], "--workdir",
               os.path.join(d, "work")]
        if inject:
            cmd += ["--inject", inject]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1]), out


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def assertTrips(self, workload, inject):
        result, out = bench(workload, inject=inject)
        self.assertFalse(result["correct"], out)
        self.assertGreater(result["failed"], 0, out)
        self.assertIn("FAILED", out)

    def test_clean_runs_pass(self):
        for workload in SCALE:
            with self.subTest(workload=workload):
                result, out = bench(workload)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0, out)
                self.assertGreaterEqual(result["attempted"], 3)
                self.assertEqual(sorted(result["metrics"]),
                                 ["host_gcycles", "peak_rss_mb", "setup_s",
                                  "sim_inst_per_mcycle"])

    def test_traced_runs_report_every_layer(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
        for workload in SCALE:
            with self.subTest(workload=workload):
                result, out = bench(workload, trace=1)
                self.assertTrue(result["correct"], out)
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                cov = result["metrics"]["trace.coverage"]["value"]
                self.assertAlmostEqual(cov, 1.0, delta=0.02)

    def test_golden_mismatch_trips(self):
        self.assertTrips("sst_commercial", "golden")

    def test_unfinished_job_trips(self):
        self.assertTrips("dependent_chain", "budget")

    def test_j1_j2_difference_trips(self):
        self.assertTrips("rock16_coherent", "j2")

    def test_flipped_member_byte_trips(self):
        self.assertTrips("sampled_profile", "member")

    def test_zero_warm_hits_trips(self):
        self.assertTrips("sampled_profile", "warm")

    def test_repeat_digest_difference_trips(self):
        self.assertTrips("sst_commercial", "digest")


def record(workload, gcycles, failed=0):
    return json.dumps({"workload": workload, "seed": 0, "trace": 0,
                       "result": {"correct": failed == 0, "attempted": 10,
                                  "failed": failed, "metrics": {
                                      "host_gcycles": {"value": gcycles},
                                      "sim_inst_per_mcycle": {
                                          "value": 10 / gcycles},
                                      "setup_s": {"value": 0.5},
                                      "peak_rss_mb": {"value": 100.0}}}})


class Compare(unittest.TestCase):
    def compare(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, values in (("a", a), ("b", b)):
                path = os.path.join(d, name + ".jsonl")
                with open(path, "w") as f:
                    for v in values:
                        f.write(record("sst_commercial", v) + "\n")
                paths.append(path)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py")] + paths,
                stdout=subprocess.PIPE, text=True)
        rows = [line for line in proc.stdout.splitlines()
                if line.split()[:2] == ["sst_commercial", "host_gcycles"]]
        return proc.returncode, rows[0].split()[-1]

    def test_same_code_is_same(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(self.compare(base, list(reversed(base))),
                         (0, "same"))

    def test_slower_is_worse(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(self.compare(base, [1.5 * x for x in base]),
                         (1, "worse"))

    def test_faster_is_better(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
        self.assertEqual(self.compare(base, [0.8 * x for x in base]),
                         (0, "better"))

    def test_wide_spread_is_unresolved(self):
        noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        self.assertEqual(self.compare(noisy, noisy), (1, "unresolved"))


if __name__ == "__main__":
    unittest.main()
