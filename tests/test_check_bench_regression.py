#!/usr/bin/env python3
"""Outcomes of scripts/check_bench_regression.py on fixture files.

Writes perf_engine-shaped JSON fixtures to a temp dir and requires
the checker's exit status and verdict for each case: a pass, a
design whose ratio to baseline is 20% over the committed one, and
telemetry intervals wholly above and straddling the 2% budget.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "scripts", "check_bench_regression.py")

RATIOS = {"baseline": 1.0, "block": 1.17, "page": 0.90,
          "footprint": 0.88, "ideal": 0.45, "alloy": 0.67,
          "banshee": 0.80}


def bench(telemetry_ci=(-1.5, 1.9), intro_ci=(-1.0, 2.0)):
    return {
        "bench": "perf_engine",
        "scale": 0.1,
        "reps": 9,
        "designs": {name: {"ratio_to_baseline": r}
                    for name, r in RATIOS.items()},
        "telemetry": {
            "reps": 9,
            "overhead_pct": sum(telemetry_ci) / 2,
            "overhead_pct_ci95": list(telemetry_ci),
            "metrics_identical": True,
            "intervals_conserve": True,
            "introspection_overhead_pct": sum(intro_ci) / 2,
            "introspection_overhead_pct_ci95": list(intro_ci),
            "introspection_metrics_identical": True,
            "introspection_probes_conserve": True,
        },
    }


class CheckBenchRegression(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_checker(self, *args):
        proc = subprocess.run([sys.executable, CHECKER, *args],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def regression(self, current):
        return self.run_checker(
            "--baseline", self.write("committed.json", bench()),
            "--current", self.write("current.json", current),
            "--tolerance", "0.15")

    def telemetry(self, doc):
        return self.run_checker(
            "--telemetry-json", self.write("bench.json", doc),
            "--telemetry-budget-pct", "2.0")

    def test_pass(self):
        rc, out = self.regression(bench())
        self.assertEqual(rc, 0, out)
        rc, out = self.telemetry(bench())
        self.assertEqual(rc, 0, out)

    def test_design_ratio_20pct_over_fails(self):
        current = bench()
        current["designs"]["footprint"]["ratio_to_baseline"] *= 1.2
        rc, out = self.regression(current)
        self.assertEqual(rc, 1, out)
        self.assertIn("footprint", out.split("FAIL:")[1])

    def test_missing_design_fails(self):
        current = bench()
        del current["designs"]["banshee"]
        rc, out = self.regression(current)
        self.assertEqual(rc, 1, out)

    def test_scale_mismatch_fails(self):
        current = bench()
        current["scale"] = 0.4
        rc, out = self.regression(current)
        self.assertEqual(rc, 1, out)
        self.assertIn("scale mismatch", out)

    def test_interval_above_budget_fails(self):
        rc, out = self.telemetry(bench(telemetry_ci=(2.5, 4.0)))
        self.assertEqual(rc, 1, out)
        self.assertIn("fail: telemetry", out)
        self.assertNotIn("unresolved", out)

    def test_interval_straddling_budget_is_unresolved(self):
        rc, out = self.telemetry(bench(intro_ci=(-1.0, 3.0)))
        self.assertEqual(rc, 1, out)
        self.assertIn("unresolved: introspection", out)
        self.assertNotIn("fail:", out)

    def test_diverged_metrics_fail(self):
        doc = bench()
        doc["telemetry"]["metrics_identical"] = False
        rc, out = self.telemetry(doc)
        self.assertEqual(rc, 1, out)


if __name__ == "__main__":
    unittest.main()
