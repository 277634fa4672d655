#!/usr/bin/env python3
"""Build sbft_bench from source and run one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the build goes to .bench_build/ at the repository root.
Prints the benchmark's report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. The metrics are the
end_to_end ones BENCHMARK.json declares, or with --trace 1 its per_layer
ones (the traced run writes .bench_build/trace/<workload>.trace.json).
Exits non-zero, without that line, when the program cannot be built or
run, or when its metric names differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
TRACE_DIR = ROOT / ".bench_build" / "trace"
# A run is a few seconds of set-up, 2 s of warm-up, the window, a drain
# of at most 10 s and the checks.
RUN_OVERHEAD_S = 100


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", str(SUITE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DBUILD_TESTING=OFF"],
        ["cmake", "--build", str(BUILD), "--target", "sbft_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return BUILD / "sbft_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in benchmark["end_to_end"]]
    per_layer = [m["name"] for m in benchmark["per_layer"]]
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail(f"unknown workload {args.workload}")

    command = [str(build()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace", str(TRACE_DIR)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_OVERHEAD_S)
    except subprocess.TimeoutExpired:
        fail("sbft_bench timed out")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail(f"sbft_bench exited with status {run.returncode} and no result")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    emitted = set(result["metrics"])
    expected = set(end_to_end) | (set(per_layer) if args.trace else set())
    if emitted != expected:
        fail("metric names differ from BENCHMARK.json: "
             f"missing {sorted(expected - emitted)}, "
             f"undeclared {sorted(emitted - expected)}")
    wanted = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in wanted},
    }))


if __name__ == "__main__":
    main()
