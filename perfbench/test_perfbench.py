#!/usr/bin/env python3
"""The benchmark's own tests: schedule determinism, metric naming, and
that a wrong reference fails the run.  Builds the binary like run.py.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXE = None


def setUpModule():
    global EXE
    EXE = run.build()


def perfbench(*args):
    return subprocess.run([EXE, *args], capture_output=True, text=True, timeout=170)


class ScheduleTest(unittest.TestCase):
    def dump(self, workload, seed, seconds=2):
        p = perfbench("--workload", workload, "--seed", str(seed), "--seconds",
                      str(seconds), "--trace", "0", "--dump-schedule")
        self.assertEqual(p.returncode, 0, p.stderr)
        return p.stdout

    def test_same_seed_same_schedule(self):
        for w in ("serve-small", "serve-large"):
            self.assertEqual(self.dump(w, 7), self.dump(w, 7))

    def test_other_seed_other_schedule(self):
        for w in ("serve-small", "serve-large"):
            self.assertNotEqual(self.dump(w, 7), self.dump(w, 8))

    def test_small_mix(self):
        lines = self.dump("serve-small", 3, seconds=10).splitlines()
        solves = [ln.split() for ln in lines if " solve " in ln]
        stats = [ln for ln in lines if ln.endswith(" stats")]
        self.assertGreater(len(solves), 1000)
        self.assertTrue(0.02 < len(stats) / len(lines) < 0.08)
        deadlines = sum(1 for s in solves if s[6] != "0")
        self.assertTrue(0.18 < deadlines / len(solves) < 0.32)
        self.assertEqual({s[3] for s in solves}, {"32", "48", "64"})


class SpecTest(unittest.TestCase):
    def test_metric_names(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for n in names:
            self.assertRegex(n, NAME_RE)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class CorrectnessTest(unittest.TestCase):
    def test_corrupt_reference_fails(self):
        for w in ("serve-small", "mgrid", "serve-large"):
            p = perfbench("--workload", w, "--seed", "1", "--seconds", "1",
                          "--trace", "0", "--corrupt-reference")
            self.assertEqual(p.returncode, 1, w)
            last = json.loads(p.stdout.strip().splitlines()[-1])
            self.assertFalse(last["correct"], w)
            self.assertGreaterEqual(last["failed"], 1, w)

    def test_clean_run_matches_spec(self):
        p = perfbench("--workload", "serve-small", "--seed", "2", "--seconds", "1",
                      "--trace", "0")
        self.assertEqual(p.returncode, 0, p.stdout)
        last = p.stdout.strip().splitlines()[-1]
        self.assertEqual(run.check_result(last, run.load_spec(), 0), [])
        self.assertTrue(json.loads(last)["correct"])


if __name__ == "__main__":
    unittest.main()
