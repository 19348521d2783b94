#!/usr/bin/env python3
"""Self-test of the benchmark: ``python3 compilebench/selftest.py``.

Checks, in under a minute:

* ``BENCHMARK.json`` is well formed and names every metric ``run.py``
  computes;
* the output check accepts a real mapping and rejects broken ones;
* every workload, on a shortened pass (``--limit 3``), prints exactly the
  listed metrics with their units, in both trace modes, with every output
  correct;
* the benchmark fails, without printing a result, where the program's
  sources are absent.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "compilebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        spec = run.load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in spec[kind]]
        self.assertEqual(len(names), len(set(names)))
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertLessEqual(max(bounds.values()), 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        per_layer = {m["name"] for m in spec["per_layer"]}
        self.assertTrue(set(run.LAYER_METRICS.values()) <= per_layer)


class CheckerTest(unittest.TestCase):
    def setUp(self):
        from repro.arch.cgra import CGRA
        from repro.core.engine import create_engine
        from repro.workloads.suite import load_benchmark
        from verify import Checker

        result = create_engine("monomorphism", CGRA(4, 4)).map(
            load_benchmark("bitcount"))
        self.assertTrue(result.success)
        self.mapping = result.mapping
        self.checker = Checker(seed=7)

    def test_accepts_a_real_mapping(self):
        self.assertIsNone(self.checker.mapping("cell", self.mapping))
        self.assertIsNone(
            self.checker.mapping_dict("cell", self.mapping.to_dict()))

    def test_rejects_a_collision(self):
        data = self.mapping.to_dict()
        first, second = sorted(data["placement"])[:2]
        data["placement"][second] = data["placement"][first]
        data["start_times"][second] = data["start_times"][first]
        self.assertIsNotNone(self.checker.mapping_dict("cell", data))

    def test_rejects_a_broken_schedule(self):
        data = self.mapping.to_dict()
        for node in data["start_times"]:
            data["start_times"][node] = 0
        self.assertIsNotNone(self.checker.mapping_dict("cell", data))

    def test_rejects_unreadable_output(self):
        self.assertIsNotNone(self.checker.mapping_dict("cell", {"ii": 1}))


class WorkloadTest(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        done = bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--limit", "3")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        self.assertEqual({name: m["unit"]
                          for name, m in result["metrics"].items()},
                         run.units(kind))
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_both_modes(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_fails_without_the_program(self):
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".compilebench_tmp"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "compilebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "mono-large", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=scratch)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".compilebench_tmp"), exist_ok=True)
    unittest.main(verbosity=2)
