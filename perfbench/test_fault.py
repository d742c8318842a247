#!/usr/bin/env python3
"""Fault smoke for the benchmark's correctness gate.

    python3 perfbench/test_fault.py

Runs every workload at a tiny size twice: once clean, where the gate must
pass, and once with --fault, which tampers one stored unit through
Secure_memory::tamper before it is read.  The faulted run must count the
failure (fail_ratio > 0 in the report line, failed > 0 in the result) and
trip the gate: correct is false, no metrics are printed, the exit code is 1.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["serve_pipelined", "infer_session", "infer_serve"]


def run(workload, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", "0", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


class FaultSmoke(unittest.TestCase):
    def test_clean_run_passes_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(report["workloads"][workload]["fail_ratio"], 0)
                self.assertIn("setup_s", result["metrics"])

    def test_tampered_unit_trips_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = run(workload, "--fault")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertEqual(result["metrics"], {})
                entry = report["workloads"][workload]
                self.assertGreater(entry["fail_ratio"], 0)
                self.assertTrue(entry["gate_errors"])


if __name__ == "__main__":
    unittest.main()
