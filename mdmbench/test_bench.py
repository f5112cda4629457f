#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 mdmbench/test_bench.py

Smoke: a tiny-size run of every workload, untraced and traced, must pass its
gates and print every metric BENCHMARK.json names, with that unit.
Negative: a perturbed step-0 force and a truncated served trajectory must
each trip the correctness gate (correct false, at least one failed
operation).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("melt-serial", "melt-machine", "melt-pme", "served-mix")


def run(workload, trace=0, fault=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(result["metrics"]), set(want))
        for name, unit in want.items():
            m = result["metrics"][name]
            self.assertEqual(m["unit"], unit, name)
            self.assertIsInstance(m["value"], (int, float), name)
        return result["metrics"]

    def test_smoke_end_to_end(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(run(w), "end_to_end")
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0.0, f"{w}/{name}")

    def test_smoke_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.check_result(run(w, trace=1), "per_layer")
                self.assertGreater(metrics["trace.overhead"]["value"], 0.0)

    def test_traced_counts_repeat(self):
        # Every work count a workload exercises (non-zero) must repeat
        # exactly. The queue-depth gauge counts jobs waiting at a moment,
        # which depends on timing, not on the work done.
        counts = [m["name"] for m in self.spec["per_layer"]
                  if m["unit"] in ("count", "B")
                  and m["name"] != "serve.queue_depth_max"]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = run(w, trace=1)["metrics"]
                b = run(w, trace=1)["metrics"]
                exercised = [n for n in counts if a[n]["value"] > 0]
                self.assertTrue(exercised, w)
                for name in exercised:
                    self.assertEqual(a[name]["value"], b[name]["value"],
                                     f"{w}/{name}")

    def test_perturbed_force_trips_gate(self):
        for w in ("melt-serial", "melt-machine", "melt-pme"):
            with self.subTest(workload=w):
                result = run(w, fault="force")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_truncated_trajectory_trips_gate(self):
        result = run("served-mix", fault="truncate")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
