#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py the way a measurement does (the first
test builds the benchmark) and checks what it prints against the metric
names and units declared in BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TEST_DIR = os.path.join(ROOT, ".bench_out", "tests")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(args, cwd=ROOT, env=None):
    """Runs the benchmark; returns (exit code, last stdout line as JSON or
    None, full stdout)."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stdout


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


class TinyRuns(unittest.TestCase):
    """A tiny run of every workload prints every declared metric."""

    def check(self, workload, trace, kind):
        code, result, out = run_bench(
            ["--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace), "--scale", "tiny"])
        self.assertEqual(code, 0, out)
        self.assertIsNotNone(result, out)
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, declared_metrics(kind))
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"}, name)
            self.assertIsInstance(m["value"], (int, float), name)
        if trace == 0:
            # The human-readable table names every metric with its samples.
            for name in got:
                self.assertIn(name, out)

    def test_corpus(self):
        self.check("corpus", 0, "end_to_end")
        self.check("corpus", 1, "per_layer")

    def test_loops(self):
        self.check("loops", 0, "end_to_end")
        self.check("loops", 1, "per_layer")

    def test_objects(self):
        self.check("objects", 0, "end_to_end")
        self.check("objects", 1, "per_layer")


class Failures(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(TEST_DIR, ignore_errors=True)
        os.makedirs(TEST_DIR)

    def tearDown(self):
        shutil.rmtree(TEST_DIR, ignore_errors=True)

    def test_tampered_expected_file_fails_the_run(self):
        tampered = os.path.join(TEST_DIR, "expected")
        shutil.copytree(os.path.join(BENCH_DIR, "expected"), tampered)
        path = os.path.join(tampered, "corpus-20240624.txt")
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace("hints ", "hints 1"))
        code, result, out = run_bench(
            ["--workload", "corpus", "--seconds", "1", "--trace", "0",
             "--expected-dir", tampered])
        self.assertEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_engine_overrides(self):
        for var in ("JSAI_INTERP", "JSAI_VM_OPT", "JSAI_SOLVER_SET",
                    "JSAI_SOLVER_JOBS", "JSAI_EXPLAIN"):
            env = dict(os.environ, **{var: "1"})
            code, result, _ = run_bench(
                ["--workload", "loops", "--seconds", "1", "--trace", "0",
                 "--scale", "tiny"], env=env)
            self.assertNotEqual(code, 0, var)
            self.assertIsNone(result, var)

    def test_fails_without_the_product_sources(self):
        bare = os.path.join(TEST_DIR, "bare")
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result, _ = run_bench(
            ["--workload", "corpus", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
