#!/usr/bin/env python3
"""Tiny-size self-test of the repository benchmark.

    python3 perfbench/test_tiny.py

Runs every workload of BENCHMARK.json on small inputs (--tiny) with tracing
off and on, and checks the output schema: the last line is the result JSON
with exactly the contract's keys, every end-to-end (untraced) or per-layer
(traced) metric is present with its unit and a finite value, every
correctness check passed, and each traced run printed layer tables whose
shares sum to 100%. Builds the benchmark first if needed (see run.py).
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 3):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


class TinyRuns(unittest.TestCase):
    def check_result(self, workload: str, trace: int):
        code, lines, err = run(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} failed:\n{err[-2000:]}")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        return lines

    def test_end_to_end_schema(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 0)

    def test_per_layer_schema_and_layer_tables(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                lines = self.check_result(w["name"], 1)
                totals = [float(m.group(1)) for line in lines
                          if (m := re.match(r"\s+total\s+\S+ s\s+(\S+) %", line))]
                self.assertTrue(totals, "no layer table printed")
                for share in totals:
                    self.assertAlmostEqual(share, 100.0, delta=0.05)
                self.assertTrue(any(re.match(r"\s+unattributed\s", l) for l in lines))

    def test_bad_arguments_fail_without_result(self):
        code, lines, _ = run("no-such-workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(lines and lines[-1].startswith('{"correct"'))


if __name__ == "__main__":
    unittest.main()
