#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py's gating behavior.

Each case writes a synthetic baseline/fresh JSON pair to a temp dir,
invokes the script as a subprocess (the same way CI does), and asserts
on exit status and output. Run directly or via ctest (label: tools).

The script under test is located via the BENCH_COMPARE environment
variable, defaulting to tools/bench_compare.py relative to the repo
root this file lives in.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.environ.get(
    "BENCH_COMPARE",
    os.path.join(os.path.dirname(os.path.abspath(__file__)),
                 os.pardir, os.pardir, "tools", "bench_compare.py"))


def run_compare(baseline_metrics, fresh_metrics, *extra_args):
    """Write the two metric lists as bench JSONs and run the script."""
    def doc(metrics):
        return {"bench": "synthetic",
                "metrics": [{"name": n, "value": v, "unit": u}
                            for (n, v, u) in metrics]}

    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        fresh_path = os.path.join(tmp, "fresh.json")
        with open(base_path, "w", encoding="utf-8") as f:
            json.dump(doc(baseline_metrics), f)
        with open(fresh_path, "w", encoding="utf-8") as f:
            json.dump(doc(fresh_metrics), f)
        proc = subprocess.run(
            [sys.executable, SCRIPT, base_path, fresh_path, *extra_args],
            capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


class BenchCompareTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        metrics = [("a.ops_per_sec", 1000.0, "ops/s"),
                   ("a.completed_frac", 1.0, "frac"),
                   ("a.failed", 0.0, "ops")]
        code, out = run_compare(metrics, metrics)
        self.assertEqual(code, 0, out)
        self.assertIn("OK", out)

    def test_count_regression_gates(self):
        code, out = run_compare([("a.failed", 0.0, "ops")],
                                [("a.failed", 2.0, "ops")])
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_rate_regression_is_advisory(self):
        code, out = run_compare([("a.ops_per_sec", 1000.0, "ops/s")],
                                [("a.ops_per_sec", 400.0, "ops/s")])
        self.assertEqual(code, 0, out)
        self.assertIn("advisory", out)

    def test_rate_regression_gates_with_flag(self):
        code, out = run_compare([("a.ops_per_sec", 1000.0, "ops/s")],
                                [("a.ops_per_sec", 400.0, "ops/s")],
                                "--gate-rates")
        self.assertEqual(code, 1, out)

    def test_saturation_frac_drop_gates(self):
        # 1.0 -> 0.5: the cluster lost half the swept rates. Gated even
        # though the absolute saturation rate metric is advisory.
        code, out = run_compare(
            [("tcp.sweep.saturation_frac", 1.0, "frac"),
             ("tcp.sweep.saturation_ops_per_sec", 4000.0, "ops/s")],
            [("tcp.sweep.saturation_frac", 0.5, "frac"),
             ("tcp.sweep.saturation_ops_per_sec", 500.0, "ops/s")])
        self.assertEqual(code, 1, out)
        self.assertIn("saturation_frac", out)

    def test_new_violations_gate_from_zero_baseline(self):
        code, out = run_compare([("tcp.zipf_hot.violations", 0.0, "count")],
                                [("tcp.zipf_hot.violations", 1.0, "count")])
        self.assertEqual(code, 1, out)
        self.assertIn("violations", out)

    def test_stabilize_failed_gates(self):
        code, out = run_compare(
            [("tcp.corruption.stabilize_failed", 0.0, "count")],
            [("tcp.corruption.stabilize_failed", 1.0, "count")])
        self.assertEqual(code, 1, out)

    def test_violation_window_is_advisory(self):
        # Machine-dependent (_us): reported, not gated.
        code, out = run_compare(
            [("tcp.corruption.violation_window_us", 1000.0, "us")],
            [("tcp.corruption.violation_window_us", 50000.0, "us")])
        self.assertEqual(code, 0, out)
        self.assertIn("advisory", out)

    def test_violation_window_from_zero_is_advisory(self):
        # A 0 µs window that becomes positive is a semantic change (the
        # corruption arm started surfacing real stale reads) but its
        # magnitude is machine-dependent like any latency: advisory,
        # unlike count metrics (violations, failed) whose from-zero
        # increases gate. --gate-rates restores the gate.
        metrics0 = [("tcp.corruption.violation_window_us", 0.0, "us")]
        metrics1 = [("tcp.corruption.violation_window_us", 290e3, "us")]
        code, out = run_compare(metrics0, metrics1)
        self.assertEqual(code, 0, out)
        self.assertIn("advisory", out)
        code, out = run_compare(metrics0, metrics1, "--gate-rates")
        self.assertEqual(code, 1, out)

    def test_completed_frac_below_one_is_flagged(self):
        # A small dip is within the 25% gate but must be flagged as an
        # overload-regime point.
        code, out = run_compare([("a.sweep.p3.completed_frac", 1.0, "frac")],
                                [("a.sweep.p3.completed_frac", 0.97, "frac")])
        self.assertEqual(code, 0, out)
        self.assertIn("overload regime", out)

    def test_completed_frac_collapse_gates(self):
        code, out = run_compare([("a.sweep.p3.completed_frac", 1.0, "frac")],
                                [("a.sweep.p3.completed_frac", 0.5, "frac")])
        self.assertEqual(code, 1, out)

    def test_fresh_only_metrics_are_informational(self):
        # A bench grew a batched.* sweep the committed baseline predates.
        # The new points must be listed (with values, so they can be
        # promoted into the next baseline) but never gated — even ones
        # whose names pattern-match lower-is-better marks like p99.
        code, out = run_compare(
            [("tcp.n16.c256.ops_per_sec", 10000.0, "ops/s")],
            [("tcp.n16.c256.ops_per_sec", 10000.0, "ops/s"),
             ("batched.tcp.n16.c256.ops_per_sec", 18000.0, "ops/s"),
             ("batched.tcp.n16.c256.p99_us", 19712.0, "us"),
             ("batched.tcp.n16.c256.failed", 0.0, "ops")])
        self.assertEqual(code, 0, out)
        self.assertIn("new metrics (no baseline yet", out)
        self.assertIn("batched.tcp.n16.c256.ops_per_sec: 18000", out)
        self.assertIn("new metric", out)

    def test_missing_metric_is_advisory(self):
        code, out = run_compare([("a.failed", 0.0, "ops"),
                                 ("b.failed", 0.0, "ops")],
                                [("a.failed", 0.0, "ops")])
        self.assertEqual(code, 0, out)
        self.assertIn("missing from fresh run", out)

    def test_new_group_family_is_aggregated_not_gated(self):
        # Sharded arms land as a whole g<G>.* family. They must appear
        # as one family summary (with per-metric values for baseline
        # promotion) and never gate — including violation-marked names.
        code, out = run_compare(
            [("sharedflush.tcp.n16.c256.ops_per_sec", 30000.0, "ops/s")],
            [("sharedflush.tcp.n16.c256.ops_per_sec", 30000.0, "ops/s"),
             ("g4.tcp.n16.c256.ops_per_sec", 29000.0, "ops/s"),
             ("g4.tcp.n16.c256.failed", 0.0, "ops"),
             ("g4.tcp.n16.c256.regular_violations", 0.0, "violations"),
             ("g2.tcp.n16.c64.regular_violations", 0.0, "violations"),
             ("tcp.g2.sweep.p0.violations", 0.0, "count"),
             ("tcp.g2_migrate.violations", 0.0, "count")])
        self.assertEqual(code, 0, out)
        self.assertIn("new group family", out)
        self.assertIn("g4.tcp.* — new group family, 3 metrics", out)
        self.assertIn("g2.tcp.* — new group family, 1 metrics", out)
        self.assertIn("g4.tcp.n16.c256.ops_per_sec: 29000", out)
        # bench_load's backend-first spelling aggregates the same way.
        self.assertIn("tcp.g2.* — new group family, 1 metrics", out)
        self.assertIn("tcp.g2_migrate.* — new group family, 1 metrics", out)

    def test_committed_group_family_gates_like_any_metric(self):
        # Once the g<G>.* family IS in the baseline, its count metrics
        # gate normally — the family aggregation only covers the
        # no-baseline-yet case.
        code, out = run_compare(
            [("g2.tcp.n16.c256.regular_violations", 0.0, "violations")],
            [("g2.tcp.n16.c256.regular_violations", 3.0, "violations")])
        self.assertEqual(code, 1, out)
        self.assertIn("regular_violations", out)

    def test_malformed_input_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.json")
            with open(bad, "w", encoding="utf-8") as f:
                f.write("{not json")
            proc = subprocess.run(
                [sys.executable, SCRIPT, bad, bad],
                capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
