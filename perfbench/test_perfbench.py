"""The benchmark's own tests: tiny-budget runs of every workload.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Each workload, plain and traced, must print every metric BENCHMARK.json names
with its unit and no failed operation. Injected wrong results and
out-of-range configurations must be counted as failed operations.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# real-spark runs on request but is not gated, so BENCHMARK.json does not list it.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["real-spark"]


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=900)
    assert out.returncode == 0, "run.py exited with %d" % out.returncode
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def assert_complete(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        for m in SPEC[kind]:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)

    def test_every_workload_prints_every_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assert_complete(run(w, 0), "end_to_end")
                self.assert_complete(run(w, 1), "per_layer")

    def test_injected_failures_raise_the_error_rate(self):
        for workload, inject in [("sim-locat-online", "out-of-range"), ("sim-sota", "out-of-range"),
                                 ("sim-locat-online", "wrong-result"), ("real-spark", "wrong-result")]:
            with self.subTest(workload=workload, inject=inject):
                result = run(workload, 0, "--inject", inject)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
