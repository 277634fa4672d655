#!/usr/bin/env python3
"""Smoke test for sbft_bench.

Runs `sbft_bench --smoke` and `sbft_bench --smoke --trace DIR`. Both must
exit 0, every workload must report a correct run, and each must emit
exactly the metric names BENCHMARK.json declares (end_to_end; plus
per_layer when traced), so the binary and the JSON cannot drift apart.
The traced run must write one trace per workload in which the gen.queue,
router.submit and await spans of every op add up to its op span.
"""

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# Span times are printed in microseconds with three decimals.
SPAN_TOLERANCE_US = 0.01


def run(bench, extra):
    done = subprocess.run([bench, "--smoke", *extra], stdout=subprocess.PIPE,
                          text=True, timeout=240)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(f"sbft_bench {' '.join(extra)} exited {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def check_spans(path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = defaultdict(dict)
    for event in events:
        if event.get("ph") == "X":
            spans[event["args"]["op"]][event["name"]] = event["dur"]
    if not spans:
        sys.exit(f"{path}: no spans")
    for op, durations in spans.items():
        children = durations["gen.queue"] + durations["router.submit"] + durations["await"]
        if abs(children - durations["op"]) > SPAN_TOLERANCE_US:
            sys.exit(f"{path}: op {op} children sum to {children}, op is {durations['op']}")
    if not any(event.get("ph") == "C" for event in events):
        sys.exit(f"{path}: no counter samples")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    benchmark = json.loads(Path(args.benchmark_json).read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    end_to_end = {m["name"] for m in benchmark["end_to_end"]}
    per_layer = {m["name"] for m in benchmark["per_layer"]}
    trace_dir = Path(args.trace_dir)

    for extra, expected in (([], end_to_end),
                            (["--trace", str(trace_dir)], end_to_end | per_layer)):
        results = run(args.bench, extra)
        if len(results) != len(workloads):
            sys.exit(f"expected {len(workloads)} results, got {len(results)}")
        for result in results:
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"incorrect run: {result}")
            if set(result["metrics"]) != expected:
                sys.exit("metric names differ from BENCHMARK.json: "
                         f"missing {sorted(expected - set(result['metrics']))}, "
                         f"undeclared {sorted(set(result['metrics']) - expected)}")
    for workload in workloads:
        check_spans(trace_dir / f"{workload}.trace.json")
    print("smoke ok")


if __name__ == "__main__":
    main()
