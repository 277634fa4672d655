#!/usr/bin/env python3
"""Compare two sets of sbft_bench runs against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py BASE_DIR CHANGE_DIR [--claim WORKLOAD.METRIC]

Each directory holds one file per run, named <workload>.<pair>[...].json,
whose last line is the JSON object run.py prints; <pair> (e.g. the seed)
matches a change run to its base run. Traced runs may sit in the same
directories: their per-layer metrics are merged in by workload.

For every workload and end-to-end metric this prints the median and
quartiles of each side and a verdict:
  ok          the change's median is not worse than the base's by more
              than the bound, or every change run beats every base run;
  worse       it is worse by more than the bound (when the spread exceeds
              the bound: only if every change run is worse than every
              base run);
  unresolved  a side's spread (quartile distance over median) exceeds the
              bound, so the runs cannot tell.
--claim adds the paired rule for a gain: the change wins at least 9 of 10
pairs (ties count for neither) and the medians differ by more than the
base's quartile distance. A set whose gen.lag_p99_us exceeds 10 % of its
read_p50_us is flagged: that run measured the generator, not the program.

Exit status: 1 if any verdict is worse or the claim is not met, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
LAG_SHARE = 0.10
CLAIM_WIN_SHARE = 0.9


def load_runs(directory):
    """{workload: {metric: {pair: value}}} and the names of incorrect runs."""
    runs = defaultdict(lambda: defaultdict(dict))
    incorrect = []
    for path in sorted(Path(directory).glob("*.json")):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if not lines:
            continue
        result = json.loads(lines[-1])
        workload, pair = (path.name.split(".") + [""])[:2]
        if not result.get("correct", False):
            incorrect.append(path.name)
        for name, metric in result["metrics"].items():
            runs[workload][name][pair] = metric["value"]
    return runs, incorrect


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q1 == q3 else float("inf"))


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def worse_by(base, change, direction):
    """Relative worsening of the change's median over the base's."""
    mb, mc = statistics.median(base), statistics.median(change)
    if mb == 0:
        return 0.0 if mc == mb else float("inf")
    delta = (mc - mb) / abs(mb)
    return delta if direction == "lower" else -delta


def verdict(base, change, direction, bound):
    if all(better(c, b, direction) for c in change for b in base):
        return "ok"
    worsening = worse_by(base, change, direction)
    if max(spread(base), spread(change)) > bound:
        every_worse = all(better(b, c, direction) for c in change for b in base)
        return "worse" if every_worse and worsening > bound else "unresolved"
    return "worse" if worsening > bound else "ok"


def claim_met(base_pairs, change_pairs, direction):
    """Paired rule. Returns (met, wins, pairs)."""
    common = sorted(set(base_pairs) & set(change_pairs))
    if not common:
        return False, 0, 0
    wins = sum(better(change_pairs[p], base_pairs[p], direction) for p in common)
    q1, _, q3 = quartiles(list(base_pairs.values()))
    gap = statistics.median(change_pairs.values()) - statistics.median(base_pairs.values())
    moved = abs(gap) > q3 - q1 and better(gap, 0, direction)
    return wins >= CLAIM_WIN_SHARE * len(common) and moved, wins, len(common)


def lag_flags(runs, side):
    flags = []
    for workload, metrics in sorted(runs.items()):
        lag, read = metrics.get("gen.lag_p99_us"), metrics.get("read_p50_us")
        if not lag or not read:
            continue
        lag_median = statistics.median(lag.values())
        read_median = statistics.median(read.values())
        if lag_median > LAG_SHARE * read_median:
            flags.append(f"FLAG {side} {workload}: gen.lag_p99_us {lag_median:.0f} "
                         f"> {LAG_SHARE:.0%} of read_p50_us {read_median:.0f}: "
                         "the run measured the generator, not the program")
    return flags


def describe(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    parser.add_argument("--claim", help="WORKLOAD.METRIC the change claims to improve")
    args = parser.parse_args(argv)

    benchmark = json.loads(Path(args.benchmark).read_text())
    base, base_incorrect = load_runs(args.base)
    change, change_incorrect = load_runs(args.change)
    failing = False

    print(f"{'workload':<10} {'metric':<15} {'base median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} {'delta':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = list(base.get(workload, {}).get(name, {}).values())
            b = list(change.get(workload, {}).get(name, {}).values())
            if not a or not b:
                print(f"{workload:<10} {name:<15} missing runs")
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            failing |= result == "worse"
            delta = worse_by(a, b, metric["better"])
            print(f"{workload:<10} {name:<15} {describe(a):<38} {describe(b):<38} "
                  f"{delta:>+8.1%} {metric['bound']:>6.0%}  {result}")

    for name in base_incorrect:
        print(f"INCORRECT base run {name}")
    for name in change_incorrect:
        print(f"INCORRECT change run {name}")
    for flag in lag_flags(base, "base") + lag_flags(change, "change"):
        print(flag)

    if args.claim:
        workload, _, name = args.claim.partition(".")
        declared = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
        if name not in declared:
            sys.exit(f"compare.py: unknown metric {name}")
        met, wins, pairs = claim_met(base.get(workload, {}).get(name, {}),
                                     change.get(workload, {}).get(name, {}),
                                     declared[name]["better"])
        print(f"claim {args.claim}: change wins {wins}/{pairs} pairs: "
              f"{'met' if met else 'NOT met'}")
        failing |= not met
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
