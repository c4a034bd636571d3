"""Self-test of the benchmark at tiny sizes; about a minute on two cores.

    python3 perfbench/selftest.py

It checks that every workload prints each metric named in BENCHMARK.json
with its unit, traced and untraced; that the correctness gate counts a
perturbed answer as a failure; that a missing wrap target is reported,
not fatal; and that the benchmark refuses to run without the library.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np

import run
import tracer
import workloads

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    done = bench("--workload", name, "--seed", "3",
                                 "--seconds", "1", "--trace", trace, "--size", "tiny")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = bench("--workload", "large-ring", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class Gate(unittest.TestCase):
    def test_perturbed_phi_counts_as_a_failure(self):
        workload = workloads.multimode_solve(5, "tiny")
        passes, outputs = run.run_passes(workload.ops, 0.0)
        self.assertEqual(run.check_outputs(workload, outputs, passes)[1], 0)
        op = next(i for i, o in enumerate(outputs) if np.any(o.phi != 0))
        outputs[op] = dataclasses.replace(outputs[op], phi=outputs[op].phi + 0.05)
        attempted, failed, problems = run.check_outputs(workload, outputs, passes)
        self.assertEqual(failed, 1)
        self.assertTrue(any("residual" in p for p in problems), problems)

    def test_a_pass_that_differs_counts_as_a_failure(self):
        workload = workloads.large_ring(5, "tiny")
        passes, outputs = run.run_passes(workload.ops, 0.0)
        passes += run.run_passes(workload.ops, 0.0)[0]
        self.assertEqual(run.check_outputs(workload, outputs, passes)[1], 0)
        passes[1].digests[0] = run.digest(workload.ops[0], outputs[0] + 1e-6)
        self.assertEqual(run.check_outputs(workload, outputs, passes)[1], 1)


class Tracing(unittest.TestCase):
    def test_missing_target_is_reported_absent(self):
        saved = tracer.TARGETS
        tracer.TARGETS = saved + (("fermion", "no_such_function", "fermion.none"),)
        t = tracer.Tracer()
        try:
            t.install()
        finally:
            t.uninstall()
            tracer.TARGETS = saved
        self.assertEqual(t.absent, ["fermion.no_such_function"])

    def test_self_time_excludes_children(self):
        spans = [("a", -1, 0, 0.0, 10.0), ("b", 0, 0, 1.0, 4.0), ("c", 1, 0, 2.0, 3.0)]
        self.assertEqual(tracer.self_times(spans), [7.0, 2.0, 1.0])


if __name__ == "__main__":
    unittest.main()
