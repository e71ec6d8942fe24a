#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py        # from the repository root

1. Every workload, untraced and traced, emits exactly the metrics that
   BENCHMARK.json declares, each with its declared unit, and passes its
   output checks.
2. A deliberately corrupted answer makes each workload's output check fail:
   the run reports correct=false, counts a failure and exits non-zero.
3. run.py holds a result to BENCHMARK.json: undeclared metrics, wrong units
   and missing end-to-end metrics are errors; per-layer metrics a workload
   did not measure are added as 0.

Each run is short (--seconds 1); the whole file takes a few minutes.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def run(workload, trace, corrupt=0):
    result = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--corrupt", str(corrupt)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900, check=False)
    last = result.stdout.rstrip("\n").split("\n")[-1]
    return result.returncode, json.loads(last) if last.startswith("{") else None


class MetricsAreDeclared(unittest.TestCase):
    def check(self, trace, declared):
        outcomes = {}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, outcome = run(workload, trace)
                outcomes[workload] = outcome
                self.assertEqual(code, 0)
                self.assertEqual(set(outcome), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(outcome["correct"])
                self.assertEqual(outcome["failed"], 0)
                self.assertGreaterEqual(outcome["attempted"], 1)
                units = {name: m["unit"] for name, m in outcome["metrics"].items()}
                self.assertEqual(units, {m["name"]: m["unit"] for m in declared})
        return outcomes

    def test_end_to_end_metrics(self):
        outcomes = self.check(0, BENCHMARK["end_to_end"])
        for workload, outcome in outcomes.items():
            for name, metric in outcome["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_per_layer_metrics(self):
        self.check(1, BENCHMARK["per_layer"])


class CorruptedAnswerFails(unittest.TestCase):
    def test_each_workload_detects_a_corrupted_answer(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            with self.subTest(workload=workload):
                code, outcome = run(workload, 0, corrupt=1)
                self.assertNotEqual(code, 0)
                self.assertFalse(outcome["correct"])
                self.assertGreaterEqual(outcome["failed"], 1)
                self.assertLess(outcome["metrics"]["success_rate"]["value"], 1.0)


class ResultIsCheckedAgainstTheDeclaredList(unittest.TestCase):
    def setUp(self):
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        self.run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.run)

    def complete(self, metrics, trace):
        return self.run.complete_metrics(ROOT, {"metrics": metrics}, trace)

    def test_unmeasured_layers_are_zero_in_declared_order(self):
        metrics = self.complete({"trace.latency_ms": {"value": 2.5, "unit": "ms"}}, 1)
        self.assertEqual(list(metrics), [m["name"] for m in BENCHMARK["per_layer"]])
        self.assertEqual(metrics["trace.latency_ms"]["value"], 2.5)
        self.assertEqual(metrics["walk.generate_s"], {"value": 0, "unit": "s"})

    def test_mismatches_are_errors(self):
        full = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        self.assertEqual(list(self.complete(full, 0)), list(full))
        missing = dict(full)
        del missing["latency_ms"]
        wrong_unit = dict(full, latency_ms={"value": 1.0, "unit": "s"})
        undeclared = dict(full, bogus={"value": 1.0, "unit": "s"})
        for metrics in (missing, wrong_unit, undeclared):
            with self.assertRaises(SystemExit):
                self.complete(metrics, 0)


if __name__ == "__main__":
    unittest.main()
