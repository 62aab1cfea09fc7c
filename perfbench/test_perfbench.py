#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root (it builds perfbench first, like run.py):

    python3 perfbench/test_perfbench.py

For every workload in BENCHMARK.json it runs smoke-size passes and
checks that every declared metric appears with its declared unit, that
the exact counts and the simulated-output digest repeat across two
traced invocations, and that no run fails.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: the build step)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Host-time units; every other per-layer metric is an exact count or
# a ratio of exact counts and must repeat bit for bit.
TIME_UNITS = {"s", "ms", "us", "ns"}


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(os.path.join(run.build_root(), "perfbench"))
        os.makedirs(run.build_root(), exist_ok=True)
        cls.out = tempfile.mkdtemp(prefix="perfbench-selftest-",
                                   dir=run.build_root())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def invoke(self, workload, trace, tag):
        out = os.path.join(self.out, tag)
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", "7",
             "--seconds", "1", "--trace", str(trace), "--scale", "smoke",
             "--out", out],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        name = f"{workload}-seed7-trace{trace}.json"
        with open(os.path.join(out, name)) as f:
            detail = json.load(f)
        self.assertEqual(detail["metrics"]["fail_frac"]["value"], 0)
        return result, detail

    def check_declared(self, metrics, declared):
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_workloads(self):
        for wl in SPEC["workloads"]:
            with self.subTest(workload=wl["name"]):
                plain, _ = self.invoke(wl["name"], 0, "plain")
                self.check_declared(plain["metrics"], SPEC["end_to_end"])
                for m in plain["metrics"].values():
                    self.assertGreater(m["value"], 0)

                first, d1 = self.invoke(wl["name"], 1, "traced-a")
                second, d2 = self.invoke(wl["name"], 1, "traced-b")
                self.check_declared(first["metrics"], SPEC["per_layer"])
                self.assertEqual(d1["digest"], d2["digest"])
                for m in SPEC["per_layer"]:
                    if m["unit"] not in TIME_UNITS:
                        self.assertEqual(
                            first["metrics"][m["name"]]["value"],
                            second["metrics"][m["name"]]["value"],
                            m["name"])


if __name__ == "__main__":
    unittest.main()
