#!/usr/bin/env python3
"""Compare a fresh bench JSON against a committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                     [--gate-rates]

Every bench binary emits ``{"bench": ..., "metrics": [{name, value,
unit}, ...]}`` (see bench/bench_json.hpp). This tool pairs metrics by
name, infers the improvement direction from the name/unit, and flags
any metric that regressed by more than ``--threshold`` (default 25%).

Metrics come in two classes:

* **count-like** (allocs, bytes, frames per op, failed/stalled ops,
  completed_frac, the per-key checker's ``regular_violations`` that
  every bench_throughput arm reports): deterministic properties of the
  code, comparable across machines. A regression here gates (exit 1).
* **rate-like** (ops/s, runs/s, p99 latency, speedups): functions of
  the machine the bench ran on. A CI runner is not the machine the
  committed baseline was recorded on, so by default these are reported
  as advisory only; pass --gate-rates for same-machine comparisons.

The open-loop load engine (BENCH_load.json) gates through the same
scheme: ``saturation_frac`` (fraction of the swept offered rates the
cluster sustained) and ``violations``/``stabilize_failed`` (checker
verdicts) are scale-invariant counts, while absolute saturation and
latency numbers stay advisory. Any fresh ``completed_frac`` below 1 is
additionally flagged as an overload-regime point: its latency metrics
describe a cluster shedding load and should not be read as a
steady-state measurement.

Metrics present only in the fresh run (a bench grew new points, e.g. a
``--clients`` sweep value) are listed in a ``new metrics`` section and
never gated: their fresh values are exactly what the next committed
baseline should record. Sharded arms are namespaced by group count — a leading
``g<G>.`` component (``g4.tcp.n16.c256.ops_per_sec``) — and the new-
metrics section aggregates each such family to one summary line, so a
whole new G-sweep reads as one unit instead of tripping per-metric
eyeballs (or, once committed, count gates against an older baseline).

Exit status: 0 = no gating regression, 1 = at least one, 2 = usage or
input error.
"""

import argparse
import json
import re
import sys

# Leading metric-name components that name a sharded-arm family, in
# either naming convention: group-first as bench_throughput emits
# ("g4.tcp.") or backend-first as bench_load emits ("tcp.g2.",
# "tcp.g2_migrate."). Used to aggregate whole families in the
# new-metrics section.
GROUP_FAMILY = re.compile(r"^(g\d+\.tcp\.|tcp\.g\d+(?:_migrate)?\.)")

# Substrings that mark a metric where SMALLER is better. Checked before
# the higher-is-better marks so e.g. "allocs_per_op" resolves correctly.
LOWER_IS_BETTER = ("allocs", "bytes", "p99", "latency", "_us", "failed",
                   "stalled", "vacuous", "frames_per_op", "violation")
# Substrings that mark a metric where LARGER is better. completed_frac
# (fraction of attempted ops that finished, 1.0 = all) and
# saturation_frac (fraction of swept offered rates sustained) are
# deliberately count-like: they are scale-invariant, so a smoke run
# gates cleanly against a full-run baseline.
HIGHER_IS_BETTER = ("per_sec", "speedup", "runs_per", "ops_per",
                    "roundtrips", "throughput", "completed", "saturation")
# Rate-like marks: machine-dependent, advisory unless --gate-rates.
RATE_LIKE = ("per_sec", "speedup", "p99", "latency", "_us", "runs_per",
             "roundtrips")


def direction(name: str, unit: str) -> str:
    """Return 'lower', 'higher', or 'unknown' for improvement."""
    key = (name + " " + unit).lower()
    for mark in LOWER_IS_BETTER:
        if mark in key:
            return "lower"
    for mark in HIGHER_IS_BETTER:
        if mark in key:
            return "higher"
    return "unknown"


def is_rate(name: str, unit: str) -> bool:
    key = (name + " " + unit).lower()
    return any(mark in key for mark in RATE_LIKE)


def load_metrics(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    return {m["name"]: (float(m["value"]), m.get("unit", ""))
            for m in doc.get("metrics", [])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("fresh", help="freshly produced bench JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression that fails the gate "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--gate-rates", action="store_true",
                        help="gate machine-dependent rate metrics too "
                             "(same-machine comparisons only)")
    args = parser.parse_args()

    base = load_metrics(args.baseline)
    fresh = load_metrics(args.fresh)

    gating, advisories, rows = [], [], []
    for name, (base_value, unit) in sorted(base.items()):
        if name not in fresh:
            advisories.append(f"{name}: missing from fresh run")
            continue
        fresh_value = fresh[name][0]
        sense = direction(name, unit)
        if sense == "unknown":
            rows.append((name, base_value, fresh_value, "-", "skipped"))
            continue
        if base_value == 0:
            # No relative delta from a zero baseline; any increase in a
            # lower-is-better count (e.g. failed ops) is a regression.
            # Rate-like metrics keep their advisory status here too: a
            # violation window of 0 µs that becomes positive is a
            # semantic change worth seeing, but its magnitude is
            # machine-dependent like any latency.
            if sense == "lower" and fresh_value > 0:
                line = f"{name}: 0 -> {fresh_value:g} " \
                       f"(was zero, {sense} is better)"
                if is_rate(name, unit) and not args.gate_rates:
                    advisories.append(line + "; rate-like, "
                                      "machine-dependent")
                    rows.append((name, base_value, fresh_value, "-",
                                 "ADVISORY regression"))
                else:
                    gating.append(line)
                    rows.append((name, base_value, fresh_value, "-",
                                 "REGRESSION"))
            else:
                rows.append((name, base_value, fresh_value, "-", "ok"))
            continue
        delta = (fresh_value - base_value) / abs(base_value)
        regressed = delta > args.threshold if sense == "lower" \
            else delta < -args.threshold
        verdict = "ok"
        if regressed:
            if is_rate(name, unit) and not args.gate_rates:
                verdict = "ADVISORY regression"
                advisories.append(
                    f"{name}: {base_value:g} -> {fresh_value:g} "
                    f"({delta:+.1%}, {sense} is better; rate-like, "
                    f"machine-dependent)")
            else:
                verdict = "REGRESSION"
                gating.append(
                    f"{name}: {base_value:g} -> {fresh_value:g} "
                    f"({delta:+.1%}, {sense} is better)")
        rows.append((name, base_value, fresh_value, f"{delta:+.1%}", verdict))

    new_metrics = sorted(set(fresh) - set(base))
    # Sharded arms arrive as whole per-group families (g2.tcp.*,
    # tcp.g2.*, tcp.g2_migrate.*): collapse each family to one
    # row/summary entry and keep only non-family metrics itemized.
    new_families = {}
    new_single = []
    for name in new_metrics:
        match = GROUP_FAMILY.match(name)
        if match:
            new_families.setdefault(match.group(1), []).append(name)
        else:
            new_single.append(name)
    for name in new_single:
        rows.append((name, float("nan"), fresh[name][0], "-", "new metric"))
    for family in sorted(new_families):
        rows.append((f"{family}* ({len(new_families[family])} metrics)",
                     float("nan"), float("nan"), "-", "new group family"))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'delta':>8}  verdict")
    for name, base_value, fresh_value, delta, verdict in rows:
        print(f"{name:<{width}}  {base_value:>12.4g}  {fresh_value:>12.4g}  "
              f"{delta:>8}  {verdict}")

    overloaded = [(name, value) for name, (value, _) in sorted(fresh.items())
                  if name.endswith("completed_frac") and value < 1.0]
    if overloaded:
        print("\noverload regime (completed_frac < 1; latency numbers at "
              "these points describe a cluster shedding load):")
        for name, value in overloaded:
            print(f"  - {name}: {value:g}")

    if new_metrics:
        # A bench grew new measurement points (e.g. a new sweep value).
        # Nothing to compare them against yet, so they are informational:
        # their fresh values are the baseline entries the next committed
        # BENCH_*.json should carry. Never gated — a brand-new metric
        # cannot have regressed.
        print(f"\nnew metrics (no baseline yet; fresh values become the "
              f"baseline on the next refresh): {len(new_metrics)}")
        for name in new_single:
            value, unit = fresh[name]
            print(f"  + {name}: {value:g} {unit}".rstrip())
        for family, names in sorted(new_families.items()):
            print(f"  + {family}* — new group family, {len(names)} metrics:")
            for name in names:
                value, unit = fresh[name]
                print(f"      {name}: {value:g} {unit}".rstrip())

    if advisories:
        print("\nadvisory (not gated):")
        for line in advisories:
            print(f"  - {line}")
    if gating:
        print(f"\nFAIL: {len(gating)} metric(s) regressed past "
              f"{args.threshold:.0%}:")
        for line in gating:
            print(f"  - {line}")
        return 1
    print(f"\nOK: no gated regression past {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
