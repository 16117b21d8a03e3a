#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py, driven through its CLI.

The regression that motivated these tests: NaN compares false against every
threshold, so a gated entry whose value went non-finite used to sail through
the comparison as "ok". A NaN measurement must be a hard failure.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "tools", "bench_compare.py")


def record(bench, scalars, direction="lower"):
    """A minimal BENCH record: scalars = [(name, value, gate), ...]."""
    return {
        "bench": bench,
        "scalars": [
            {"name": n, "value": v, "direction": direction, "gate": g}
            for n, v, g in scalars
        ],
        "measures": [],
    }


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self._tmp.name, "baseline")
        self.cur_dir = os.path.join(self._tmp.name, "current")
        os.mkdir(self.base_dir)
        os.mkdir(self.cur_dir)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, directory, rec):
        path = os.path.join(directory, "BENCH_" + rec["bench"] + ".json")
        with open(path, "w") as f:
            json.dump(rec, f)  # NaN/Infinity round-trip via Python json

    def run_compare(self, *extra):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--baseline", self.base_dir,
             "--current", self.cur_dir, *extra],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_identical_records_pass(self):
        rec = record("sim", [("makespan_s", 2.5, True), ("wall_s", 0.1, False)])
        self.write(self.base_dir, rec)
        self.write(self.cur_dir, rec)
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)
        self.assertIn("no regressions", out)

    def test_gated_regression_fails(self):
        self.write(self.base_dir, record("sim", [("makespan_s", 2.0, True)]))
        self.write(self.cur_dir, record("sim", [("makespan_s", 3.0, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)

    def test_nan_in_gated_current_value_is_a_hard_failure(self):
        self.write(self.base_dir, record("sim", [("makespan_s", 2.0, True)]))
        self.write(self.cur_dir,
                   record("sim", [("makespan_s", float("nan"), True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("non-finite", out)

    def test_nan_in_gated_baseline_value_is_a_hard_failure(self):
        self.write(self.base_dir,
                   record("sim", [("makespan_s", float("nan"), True)]))
        self.write(self.cur_dir, record("sim", [("makespan_s", 2.0, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("non-finite", out)

    def test_infinity_in_gated_value_is_a_hard_failure(self):
        self.write(self.base_dir, record("sim", [("makespan_s", 2.0, True)]))
        self.write(self.cur_dir,
                   record("sim", [("makespan_s", float("inf"), True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("non-finite", out)

    def test_nan_in_ungated_value_rides_along(self):
        self.write(self.base_dir, record(
            "sim", [("makespan_s", 2.0, True), ("wall_s", 0.1, False)]))
        self.write(self.cur_dir, record(
            "sim", [("makespan_s", 2.0, True), ("wall_s", float("nan"), False)]))
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)

    def test_missing_baseline_gate_flag(self):
        rec = record("newbench", [("makespan_s", 1.0, True)])
        self.write(self.cur_dir, rec)
        self.write(self.base_dir, record("sim", [("makespan_s", 2.0, True)]))
        self.write(self.cur_dir, record("sim", [("makespan_s", 2.0, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)  # skipped without the flag
        code, out = self.run_compare("--fail-on-missing-baseline")
        self.assertEqual(code, 1, out)
        self.assertIn("no baseline", out)

    def test_near_zero_baseline_uses_absolute_tolerance(self):
        self.write(self.base_dir, record("sim", [("residual", 0.0, True)]))
        self.write(self.cur_dir, record("sim", [("residual", 5e-7, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)  # inside --zero-tolerance
        self.write(self.cur_dir, record("sim", [("residual", 1e-3, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)

    def test_negative_baseline_lower_is_better(self):
        # -10 -> -5 rose (worse for lower-is-better); -10 -> -20 fell.
        self.write(self.base_dir, record("sim", [("offset", -10.0, True)]))
        self.write(self.cur_dir, record("sim", [("offset", -5.0, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("+50.0%", out)
        self.write(self.cur_dir, record("sim", [("offset", -20.0, True)]))
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)
        self.assertIn("-100.0%", out)

    def test_negative_baseline_higher_is_better(self):
        # The mirror image: -10 -> -20 fell (worse); -10 -> -5 rose.
        self.write(self.base_dir,
                   record("sim", [("gain", -10.0, True)], "higher"))
        self.write(self.cur_dir,
                   record("sim", [("gain", -20.0, True)], "higher"))
        code, out = self.run_compare()
        self.assertEqual(code, 1, out)
        self.assertIn("regressed", out)
        self.write(self.cur_dir,
                   record("sim", [("gain", -5.0, True)], "higher"))
        code, out = self.run_compare()
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
