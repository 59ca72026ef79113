#!/usr/bin/env python3
"""Command-line checks for the built gctrace and heapscope binaries:
malformed --cycles and --events values (gctrace) and --map=, --sites= and
--audit= values (heapscope) exit 2, well-formed ones exit 0.

Usage: test_gctrace_cli.py <path to gctrace> <path to heapscope>
(ctest passes both paths)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GCTRACE = None
HEAPSCOPE = None

# Two cycles of begin/end markers: enough for a non-empty summary.
TRACE = {"traceEvents": [
    {"ph": "B", "name": "cycle", "ts": 1.0, "tid": 0,
     "args": {"cycle": 3}},
    {"ph": "E", "name": "cycle", "ts": 2.0, "tid": 0,
     "args": {"cycle": 3}},
    {"ph": "B", "name": "cycle", "ts": 3.0, "tid": 0,
     "args": {"cycle": 4}},
    {"ph": "E", "name": "cycle", "ts": 4.0, "tid": 0,
     "args": {"cycle": 4}},
]}


class GctraceCliTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.TemporaryDirectory()
        cls.trace = os.path.join(cls.dir.name, "trace.json")
        with open(cls.trace, "w", encoding="utf-8") as f:
            json.dump(TRACE, f)

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def run_gctrace(self, *args):
        return subprocess.run([GCTRACE, *args], capture_output=True,
                              text=True, check=False)

    def test_malformed_cycles_exit_2(self):
        for spec in ("3..7junk", "3junk", "7..3", "", "..5", "3..",
                     "x"):
            with self.subTest(spec=spec):
                r = self.run_gctrace(self.trace, f"--cycles={spec}")
                self.assertEqual(r.returncode, 2, r.stdout)
                self.assertIn("bad --cycles range", r.stderr)

    def test_malformed_events_exit_2(self):
        for spec in ("abc", "5x", "", "-1"):
            with self.subTest(spec=spec):
                r = self.run_gctrace(self.trace, f"--events={spec}")
                self.assertEqual(r.returncode, 2, r.stdout)
                self.assertIn("bad --events count", r.stderr)

    def test_well_formed_flags_exit_0(self):
        r = self.run_gctrace(self.trace, "--cycles=3..7", "--events=2")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("cycles 3..7: 4 of 4 events", r.stdout)
        self.assertIn("-- first 2 events --", r.stdout)
        r = self.run_gctrace(self.trace, "--cycles=4")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("cycles 4..4: 2 of 4 events", r.stdout)

    def test_usage_errors_exit_2(self):
        self.assertEqual(self.run_gctrace().returncode, 2)
        self.assertEqual(
            self.run_gctrace(self.trace, "--bogus").returncode, 2)


class HeapscopeCliTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.TemporaryDirectory()
        # An empty log holds zero captures and is valid input.
        cls.log = os.path.join(cls.dir.name, "snap.jsonl")
        open(cls.log, "w", encoding="utf-8").close()

    @classmethod
    def tearDownClass(cls):
        cls.dir.cleanup()

    def run_heapscope(self, *args):
        return subprocess.run([HEAPSCOPE, *args], capture_output=True,
                              text=True, check=False)

    def test_malformed_values_exit_2(self):
        missing = os.path.join(self.dir.name, "missing.jsonl")
        for flag, what in (("map", "cycle"), ("sites", "count"),
                           ("audit", "cycle")):
            for spec in ("7junk", "abc", "", "-1"):
                with self.subTest(flag=flag, spec=spec):
                    r = self.run_heapscope(self.log, f"--{flag}={spec}")
                    self.assertEqual(r.returncode, 2, r.stdout)
                    self.assertIn(f"bad --{flag} {what}", r.stderr)
            # Rejected while parsing arguments, before the log is opened.
            with self.subTest(flag=flag, log="missing"):
                r = self.run_heapscope(missing, f"--{flag}=7junk")
                self.assertEqual(r.returncode, 2, r.stderr)
                self.assertNotIn("cannot open", r.stderr)

    def test_well_formed_values_exit_0(self):
        r = self.run_heapscope(self.log, "--map=3", "--sites=5",
                               "--audit=2")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("0 captures", r.stdout)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: test_gctrace_cli.py <path to gctrace> "
                 "<path to heapscope>")
    GCTRACE = sys.argv.pop(1)
    HEAPSCOPE = sys.argv.pop(1)
    unittest.main()
