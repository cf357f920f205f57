#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Builds perfbench/ with its unit tests (GoogleTest) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs them,
and checks that the metric names and units the binary prints are exactly
those of BENCHMARK.json, end to end and per layer, in order.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", run.build_dir(), "--target",
                        "perfbench_tests", "-j", jobs], check=True)
        cls.tests = os.path.join(run.build_dir(), "perfbench_tests")

    def test_unit_tests_pass(self):
        subprocess.run([self.tests], check=True)

    def test_metric_table_matches_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        out = subprocess.run([self.binary, "--list-metrics"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        printed = {"end_to_end": [], "per_layer": []}
        for line in out.splitlines():
            kind, name, unit = line.split()
            printed[kind].append((name, unit))
        for kind in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"]) for m in spec[kind]]
            self.assertEqual(printed[kind], want, kind)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "ysb", "--seed", "1", "--seconds", "0",
                      "--trace", "0"],
                     ["--workload", "ysb", "--seed", "-3", "--seconds", "1",
                      "--trace", "0"]):
            p = subprocess.run([self.binary] + args, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
            self.assertNotEqual(p.returncode, 0, args)
            self.assertEqual(p.stdout, "", args)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
