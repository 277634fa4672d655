#!/usr/bin/env python3
"""Fixture tests for compare.py: every verdict, the paired claim rule and
the generator-lag flag, on synthetic run directories."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCHMARK = {
    "workloads": [{"name": "steady", "why": "fixture"}],
    "end_to_end": [
        {"name": "ops_per_sec", "unit": "ops/s", "better": "higher", "bound": 0.1},
        {"name": "read_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "gen.lag_p99_us", "unit": "us", "better": "lower"}],
}
STEADY = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def write_set(directory, series):
    """series: {metric: [value of pair 1, pair 2, ...]} for workload steady."""
    directory.mkdir()
    pairs = len(next(iter(series.values())))
    for pair in range(pairs):
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {name: {"value": values[pair], "unit": "x"}
                              for name, values in series.items()}}
        (directory / f"steady.{pair + 1}.json").write_text(
            "report lines before the result\n" + json.dumps(result) + "\n")


class VerdictTest(unittest.TestCase):
    def test_ok_within_bound(self):
        change = [v * 0.95 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1), "ok")

    def test_worse_beyond_bound(self):
        change = [v * 0.8 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "higher", 0.1), "worse")
        self.assertEqual(compare.verdict(STEADY, [v * 1.2 for v in STEADY],
                                         "lower", 0.1), "worse")

    def test_unresolved_when_spread_exceeds_bound(self):
        wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        self.assertEqual(compare.verdict(STEADY, wide, "higher", 0.1), "unresolved")

    def test_every_change_run_better_is_ok_despite_spread(self):
        wide = [150, 200, 160, 190, 170]
        self.assertEqual(compare.verdict(STEADY, wide, "higher", 0.1), "ok")

    def test_every_change_run_worse_beyond_bound_is_worse_despite_spread(self):
        wide = [20, 60, 30, 50, 40]
        self.assertEqual(compare.verdict(STEADY, wide, "higher", 0.1), "worse")


class ClaimTest(unittest.TestCase):
    @staticmethod
    def pairs(values):
        return {str(i): v for i, v in enumerate(values)}

    def test_met(self):
        change = [v - 10 for v in STEADY]
        met, wins, pairs = compare.claim_met(self.pairs(STEADY), self.pairs(change), "lower")
        self.assertEqual((met, wins, pairs), (True, 10, 10))

    def test_not_met_below_nine_of_ten(self):
        change = [v - 10 for v in STEADY[:8]] + [v + 1 for v in STEADY[8:]]
        met, wins, _ = compare.claim_met(self.pairs(STEADY), self.pairs(change), "lower")
        self.assertEqual((met, wins), (False, 8))

    def test_not_met_within_base_spread(self):
        change = [v - 1 for v in STEADY]  # wins every pair, moves < IQR
        met, wins, _ = compare.claim_met(self.pairs(STEADY), self.pairs(change), "lower")
        self.assertEqual((met, wins), (False, 10))


class CommandLineTest(unittest.TestCase):
    def run_compare(self, base, change, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
            write_set(tmp / "base", base)
            write_set(tmp / "change", change)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = compare.main([str(tmp / "base"), str(tmp / "change"),
                                       "--benchmark", str(tmp / "BENCHMARK.json"),
                                       *extra])
            return status, out.getvalue()

    def test_same_sets_are_ok(self):
        series = {"ops_per_sec": STEADY, "read_p50_us": STEADY}
        status, out = self.run_compare(series, series)
        self.assertEqual(status, 0)
        self.assertEqual(out.count("  ok"), 2)

    def test_worse_fails(self):
        base = {"ops_per_sec": STEADY, "read_p50_us": STEADY}
        change = {"ops_per_sec": STEADY, "read_p50_us": [v * 1.5 for v in STEADY]}
        status, out = self.run_compare(base, change)
        self.assertEqual(status, 1)
        self.assertIn("worse", out)

    def test_claim(self):
        base = {"ops_per_sec": STEADY, "read_p50_us": STEADY}
        change = {"ops_per_sec": STEADY, "read_p50_us": [v - 10 for v in STEADY]}
        status, out = self.run_compare(base, change, "--claim", "steady.read_p50_us")
        self.assertEqual(status, 0)
        self.assertIn("wins 10/10 pairs: met", out)
        status, out = self.run_compare(base, base, "--claim", "steady.read_p50_us")
        self.assertEqual(status, 1)
        self.assertIn("NOT met", out)

    def test_generator_lag_flag(self):
        calm = {"ops_per_sec": STEADY, "read_p50_us": STEADY,
                "gen.lag_p99_us": [5] * len(STEADY)}
        lagging = dict(calm, **{"gen.lag_p99_us": [50] * len(STEADY)})
        _, out = self.run_compare(calm, lagging)
        self.assertNotIn("FLAG base", out)
        self.assertIn("FLAG change steady: gen.lag_p99_us 50", out)


if __name__ == "__main__":
    unittest.main()
