"""Smoke test of the benchmark: every workload at its tiny size.

Run from the root of a checkout (the first run builds fa_perfbench):

    python3 -m unittest discover -s perfbench/tests -v

For each workload and both modes it checks that the run succeeds, that
every metric BENCHMARK.json names for the mode is printed as a
`name value unit` line and in the final JSON with the declared unit,
and that the correctness checks ran and passed.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        verdict = json.loads(lines[-1])
        self.assertEqual(set(verdict),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(verdict["correct"], True)
        self.assertGreaterEqual(verdict["attempted"], 1)
        self.assertEqual(verdict["failed"], 0)

        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3:
                printed[parts[0]] = (float(parts[1]), parts[2])
        self.assertGreater(printed["correctness.checks"][0], 0)

        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(verdict["metrics"]),
                         {m["name"] for m in wanted})
        for m in wanted:
            name, unit = m["name"], m["unit"]
            got = verdict["metrics"][name]
            self.assertEqual(got["unit"], unit, name)
            self.assertIsInstance(got["value"], (int, float), name)
            self.assertTrue(math.isfinite(got["value"]), name)
            self.assertIn(name, printed, name)
            self.assertEqual(printed[name][1], unit, name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


if __name__ == "__main__":
    unittest.main()
