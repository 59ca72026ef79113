#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 -m unittest perfbench/test_perfbench.py

Builds hcsbench the same way run.py does (under $CARGO_TARGET_DIR, or
.bench_build), then checks the percentile code, the metric catalogue
against BENCHMARK.json, and runs every workload in smoke mode.
"""

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nearest_rank(samples, p):
    """Reference: smallest sample with at least p*n samples at or below."""
    ordered = sorted(samples)
    for i, v in enumerate(ordered):
        if i + 1 >= p * len(ordered):
            return v
    return ordered[-1]


class CatalogueTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        bench = load_benchmark_json()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)

    def test_catalogue_matches_benchmark_json(self):
        bench = load_benchmark_json()
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["better"], "lower")
        bounds = [m["bound"] for m in bench["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_percentiles_are_exact(self):
        rng = random.Random(7)
        ps = [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
        for n in (1, 2, 3, 10, 100, 1001, 20000):
            samples = [rng.choice((rng.randrange(50), rng.randrange(10**9)))
                       for _ in range(n)]
            proc = subprocess.run(
                [self.binary, "--percentiles=" + ",".join(map(str, ps))],
                input=" ".join(map(str, samples)), capture_output=True,
                text=True, check=True)
            got = [float(x) for x in proc.stdout.split()]
            want = [float(nearest_rank(samples, p)) for p in ps]
            self.assertEqual(got, want, "n=%d" % n)

    def run_bench(self, workload, trace, cwd=ROOT):
        return subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--smoke"],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_smoke_runs_every_workload(self):
        bench = load_benchmark_json()
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in bench[section]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertTrue(math.isfinite(v["value"]))

    def test_refuses_to_run_without_the_program(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        with tempfile.TemporaryDirectory(
                dir=os.path.join(ROOT, ".bench_out")) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", "synth_locality", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
