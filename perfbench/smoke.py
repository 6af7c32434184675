"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py        (from the repository root, ~15 s)

A tiny run of each workload, traced and untraced, must emit every metric
named in BENCHMARK.json with its unit, fail no op, and count the failure of
a known-failing input in its probe; the rounds must never draw a known
failure; the checker must reject a perturbed eigenvalue; and the entry point
must refuse to run where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# A few ops per workload, and one cheap input per workload known to fail at
# the seed for its probe.
TINY = {
    "scan": [Op("scan", "even", 5, 1.0, "double"), Op("scan", "odd", 7, 12.0, "double"),
             Op("scan", "even", 33, 100.0, "double")],
    "extended": [Op("spectrum", "even", 15, 12.0, "extended"),
                 Op("wavefunction", "even", 15, 12.0, "extended", workloads.EXTENDED_REF_ETA),
                 Op("spectrum", "odd", 6, 0.5, "extended")],
    "verify": [Op("verify", "even", 10, 1.0, "double"), Op("verify", "odd", 6, 5.0, "double"),
               Op("verify", "odd", 3, 10.0, "double")],
}
TINY_PROBE = {
    "scan": ([Op("scan", "even", 34, 100.0, "double")], "NumericalFailureError"),
    "extended": ([], None),
    "verify": ([Op("verify", "even", 12, 1e-10, "double")], "exit1"),
}


def tiny_run(workload: str, trace: bool) -> dict:
    saved = workloads.ROUNDS[workload], workloads.KNOWN_FAILURES[workload]
    workloads.ROUNDS[workload] = lambda _rng: list(TINY[workload])
    workloads.KNOWN_FAILURES[workload] = TINY_PROBE[workload][0]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return run.benchmark(workload, seed=0, seconds=1e-9, trace=trace)
    finally:
        workloads.ROUNDS[workload], workloads.KNOWN_FAILURES[workload] = saved


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    def check_result(self, result: dict, expected: dict, workload: str):
        self.assertTrue(result["correct"], workload)
        self.assertEqual(set(result["metrics"]), set(expected), workload)
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_workloads_emit_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = tiny_run(workload, trace=False)
                self.check_result(plain, self.end_to_end, workload)
                self.assertEqual(plain["attempted"], 3)
                traced = tiny_run(workload, trace=True)
                self.check_result(traced, self.per_layer, workload)
                self.assertEqual(traced["attempted"], 6)
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(traced["failed"], 0)
                fails = {name: m["value"] for name, m in traced["metrics"].items()
                         if name.startswith("fail.") and m["value"]}
                failure = TINY_PROBE[workload][1]
                self.assertEqual(fails, {f"fail.{failure}": 1} if failure else {})
                self.assertGreater(traced["metrics"]["eigensolver.eigen_decompose.calls"]["value"], 0)

    def test_rounds_draw_no_known_failure(self):
        for workload in run.WORKLOADS:
            known = set(workloads.KNOWN_FAILURES[workload])
            rounds = workloads.rounds(workload, 3)
            for _ in range(20):
                self.assertFalse(known & set(next(rounds)), workload)

    def test_rounds_repeat_per_seed(self):
        for workload in run.WORKLOADS:
            first = next(workloads.rounds(workload, 7))
            self.assertEqual(first, next(workloads.rounds(workload, 7)))
            self.assertNotEqual(first, next(workloads.rounds(workload, 8)))

    def test_checker_rejects_perturbed_eigenvalue(self):
        parity, n, a = reference.REFERENCE_CASE
        scratch = os.path.join(run.OUT_DIR, "smoke")
        os.makedirs(scratch, exist_ok=True)
        runner = run.Runner(scratch)
        argv, path = runner.argv(Op("spectrum", parity, n, a, "extended"))
        try:
            self.assertEqual(runner.cli.main(argv), 0)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        finally:
            shutil.rmtree(scratch)
        self.assertIsNone(reference.check_spectrum_doc(doc, parity, n, a))
        etas = doc["data"]["eigenvalues"]
        self.assertIsNotNone(reference.check_anchors([e for e in etas if abs(e - 822.7) > 1]))
        k = len(etas) // 2
        etas[k] += 1e-6
        self.assertIn(f"k={k + 1}", reference.check_spectrum_doc(doc, parity, n, a) or "")

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(run.OUT_DIR, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
