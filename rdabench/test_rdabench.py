#!/usr/bin/env python3
"""Tests of the rdabench benchmark itself, on shrunken (--tiny) sizes.

Run from the repository root:

    python3 rdabench/test_rdabench.py

The first test builds the benchmark through run.py if needed.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("force_uniform", "noforce_skewed", "crash_restart")
# Counted and simulated metrics that must repeat exactly at a fixed seed.
EXACT = ("transfers_per_txn", "device_ms_per_txn", "device_tps",
         "restart_transfers", "restart_device_ms", "rebuild_device_ms")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def run(workload, seed, trace=0, seconds=1, root=ROOT):
    """Runs one tiny workload; returns (exit code, stdout lines, result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "rdabench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, lines, result


def inputs_digest(lines):
    for line in lines:
        match = re.match(r"inputs_digest=([0-9a-f]+)", line)
        if match:
            return match.group(1)
    raise AssertionError("no inputs_digest line")


class RdabenchTest(unittest.TestCase):

    def test_tiny_run_of_each_workload_passes_its_gate(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, seed=3)
                self.assertEqual(code, 0, "\n".join(lines))
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(list(result["metrics"]), names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.assertTrue(
                    any(line.startswith("fingerprint ") for line in lines))

    def test_counted_metrics_repeat_exactly_at_a_fixed_seed(self):
        for workload in ("force_uniform", "crash_restart"):
            with self.subTest(workload=workload):
                first = run(workload, seed=7)[2]["metrics"]
                second = run(workload, seed=7)[2]["metrics"]
                for name in EXACT:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_a_different_seed_gives_different_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                one = inputs_digest(run(workload, seed=1)[1])
                again = inputs_digest(run(workload, seed=1)[1])
                two = inputs_digest(run(workload, seed=2)[1])
                self.assertEqual(one, again)
                self.assertNotEqual(one, two)

    def test_traced_run_reports_every_per_layer_metric(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, result = run(workload, seed=4, trace=1, seconds=2)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(sorted(result["metrics"]), sorted(names))
                coverage = result["metrics"]["trace.coverage"]["value"]
                self.assertGreater(coverage, 0.5)
                self.assertLessEqual(coverage, 1.0)

    def test_fails_without_the_engine_sources(self):
        with tempfile.TemporaryDirectory() as scratch:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(BENCH_DIR, os.path.join(scratch, "rdabench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = run("force_uniform", seed=1, root=scratch)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
