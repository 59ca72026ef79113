#!/usr/bin/env python3
"""Tests for tools/bench_diff.py: both report types, the regression gate,
the core-count refusal (with and without --strict) and unreadable input.

Run directly (python3 tests/tools/test_bench_diff.py) or through ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "tools", "bench_diff.py")


def sweep(cores, mops):
    """An alloc-scaling sweep report; mops maps mutators -> Mops/s."""
    return {"bench": "alloc_scaling", "cores": cores,
            "points": [{"mutators": m, "throughput_mops": t}
                       for m, t in sorted(mops.items())]}


def gbench(cpus, times_ns):
    """A google-benchmark report; times_ns maps name -> cpu_time (ns)."""
    return {"context": {"num_cpus": cpus},
            "benchmarks": [{"name": n, "run_type": "iteration",
                            "cpu_time": t, "time_unit": "ns"}
                           for n, t in sorted(times_ns.items())]}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_diff(self, current, baseline, *extra):
        return subprocess.run(
            [sys.executable, SCRIPT, "--current", current, "--baseline",
             baseline, *extra],
            capture_output=True, text=True, check=False)

    # --- alloc-scaling sweep ----------------------------------------------

    def test_sweep_within_tolerance_passes(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 2: 5.0, 8: 10.0}))
        cur = self.write("c.json", sweep(4, {1: 2.8, 2: 1.0, 8: 9.5}))
        r = self.run_diff(cur, base)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("sweep report", r.stdout)
        self.assertIn("no regression", r.stdout)

    def test_sweep_drop_at_guarded_point_fails(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 8: 10.0}))
        cur = self.write("c.json", sweep(4, {1: 3.0, 8: 8.0}))
        r = self.run_diff(cur, base)
        self.assertEqual(r.returncode, 1)
        self.assertIn("REGRESSION", r.stdout)

    def test_sweep_missing_current_guard_fails(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 8: 10.0}))
        cur = self.write("c.json", sweep(4, {1: 3.0}))
        self.assertEqual(self.run_diff(cur, base).returncode, 1)

    def test_sweep_missing_baseline_guard_is_skipped(self):
        base = self.write("b.json", sweep(4, {1: 3.0}))
        cur = self.write("c.json", sweep(4, {1: 3.0, 8: 1.0}))
        r = self.run_diff(cur, base)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("lacks the 8-mutator point", r.stderr)

    def test_sweep_custom_tolerance(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 8: 10.0}))
        cur = self.write("c.json", sweep(4, {1: 3.0, 8: 9.5}))
        self.assertEqual(
            self.run_diff(cur, base, "--tolerance", "0.01").returncode, 1)

    # --- google-benchmark ---------------------------------------------------

    def test_gbench_within_tolerance_passes(self):
        base = self.write("b.json", gbench(4, {"BM_A": 100.0,
                                               "BM_Gone": 5.0}))
        cur = self.write("c.json", gbench(4, {"BM_A": 140.0,
                                              "BM_New": 1e9}))
        r = self.run_diff(cur, base)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("google-benchmark report", r.stdout)
        self.assertIn("BM_New: new benchmark", r.stdout)
        self.assertIn("baseline-only benchmark BM_Gone", r.stderr)

    def test_gbench_slowdown_fails(self):
        base = self.write("b.json", gbench(4, {"BM_A": 100.0}))
        cur = self.write("c.json", gbench(4, {"BM_A": 151.0}))
        r = self.run_diff(cur, base)
        self.assertEqual(r.returncode, 1)
        self.assertIn("REGRESSION", r.stdout)

    def test_gbench_normalizes_time_units(self):
        base_doc = gbench(4, {"BM_A": 2.0})
        base_doc["benchmarks"][0]["time_unit"] = "ms"
        base = self.write("b.json", base_doc)
        cur = self.write("c.json", gbench(4, {"BM_A": 2.5e6}))
        self.assertEqual(self.run_diff(cur, base).returncode, 0)
        cur = self.write("c2.json", gbench(4, {"BM_A": 3.5e6}))
        self.assertEqual(self.run_diff(cur, base).returncode, 1)

    # --- core-count refusal -------------------------------------------------

    def test_core_mismatch_warns_and_passes(self):
        for make, worse in ((sweep, {1: 0.1, 8: 0.1}),
                            (gbench, {"BM_A": 1e9})):
            with self.subTest(report=make.__name__):
                good = {1: 3.0, 8: 10.0} if make is sweep else {"BM_A": 1.0}
                base = self.write("b.json", make(1, good))
                cur = self.write("c.json", make(4, worse))
                r = self.run_diff(cur, base)
                self.assertEqual(r.returncode, 0, r.stderr)
                self.assertIn("WARNING", r.stderr)
                self.assertIn("core-count mismatch", r.stdout)

    def test_core_mismatch_fails_under_strict(self):
        base = self.write("b.json", gbench(1, {"BM_A": 1.0}))
        cur = self.write("c.json", gbench(4, {"BM_A": 1.0}))
        r = self.run_diff(cur, base, "--strict")
        self.assertEqual(r.returncode, 1)
        self.assertIn("--strict", r.stderr)

    def test_unrecorded_baseline_cores_is_a_mismatch(self):
        legacy = sweep(None, {1: 3.0, 8: 10.0})
        del legacy["cores"]
        base = self.write("b.json", legacy)
        cur = self.write("c.json", sweep(4, {1: 3.0, 8: 10.0}))
        self.assertEqual(self.run_diff(cur, base, "--strict").returncode, 1)

    # --- unreadable input ---------------------------------------------------

    def test_unreadable_file_exits_2(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 8: 10.0}))
        missing = os.path.join(self.dir.name, "missing.json")
        self.assertEqual(self.run_diff(missing, base).returncode, 2)
        garbage = self.write("g.json", "{not json")
        self.assertEqual(self.run_diff(garbage, base).returncode, 2)
        unknown = self.write("u.json", {"something": []})
        self.assertEqual(self.run_diff(unknown, base).returncode, 2)
        broken = self.write("p.json", {"points": [{"mutators": 1}]})
        self.assertEqual(self.run_diff(broken, base).returncode, 2)

    def test_mixed_report_types_exit_2(self):
        base = self.write("b.json", sweep(4, {1: 3.0, 8: 10.0}))
        cur = self.write("c.json", gbench(4, {"BM_A": 1.0}))
        self.assertEqual(self.run_diff(cur, base).returncode, 2)

    def test_committed_baselines_compare_clean_against_themselves(self):
        root = os.path.join(os.path.dirname(SCRIPT), os.pardir, "bench",
                            "baselines")
        for name in ("BENCH_alloc_scaling.json", "BENCH_micro_gc.json",
                     "BENCH_micro_simcache.json"):
            with self.subTest(baseline=name):
                path = os.path.join(root, name)
                r = self.run_diff(path, path, "--strict")
                self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    unittest.main()
