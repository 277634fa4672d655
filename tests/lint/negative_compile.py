#!/usr/bin/env python3
"""Thread-safety analysis gate, run as a ctest (label: lint) when a
clang++ is on PATH (CMake skips registering it otherwise — gcc has no
thread-safety analysis).

Two directions:
  * positive — every runtime/net translation unit must pass
    `clang++ -fsyntax-only -Wthread-safety -Werror=thread-safety-analysis`
    (the annotations in src/runtime are consistent);
  * negative — tests/lint/mislocked_mailbox.cpp, which reads a
    GUARDED_BY queue without its mutex, must FAIL with a thread-safety
    diagnostic. This is the proof that the analysis is actually armed:
    if the annotation macros ever compile away under clang, the
    mis-locked file starts compiling and this test goes red.
"""

import argparse
import subprocess
import sys

POSITIVE_TUS = [
    "runtime/tcp.cpp",
    "runtime/cluster.cpp",
    "runtime/sharded_cluster.cpp",
    "load/driver.cpp",
    "core/shard_map.cpp",
    "net/message.cpp",
    "net/datalink.cpp",
    "core/mux.cpp",
    "core/mux_flush.cpp",
    "common/logging.cpp",
    "sim/parallel.cpp",
]

FLAGS = [
    "-std=c++20",
    "-fsyntax-only",
    "-Wthread-safety",
    "-Werror=thread-safety-analysis",
    "-Werror=thread-safety-attributes",
    "-Werror=thread-safety-precise",
]


def run_clang(clang: str, src_dir: str, tu: str):
    return subprocess.run(
        [clang, *FLAGS, "-I", src_dir, tu],
        capture_output=True,
        text=True,
        check=False,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--clang", required=True)
    parser.add_argument("--src", required=True, help="repo src/ directory")
    parser.add_argument("--fixture-dir", required=True,
                        help="directory holding mislocked_mailbox.cpp")
    args = parser.parse_args()

    failures = 0
    for tu in POSITIVE_TUS:
        result = run_clang(args.clang, args.src, f"{args.src}/{tu}")
        if result.returncode != 0:
            print(f"POSITIVE FAIL: {tu} does not pass -Wthread-safety:")
            print(result.stderr)
            failures += 1
        else:
            print(f"ok: {tu} clean under -Wthread-safety")

    negative = f"{args.fixture_dir}/mislocked_mailbox.cpp"
    result = run_clang(args.clang, args.src, negative)
    if result.returncode == 0:
        print("NEGATIVE FAIL: mislocked_mailbox.cpp compiled — the "
              "thread-safety analysis is not armed")
        failures += 1
    elif "thread-safety" not in result.stderr and "guarded by" not in result.stderr:
        print("NEGATIVE FAIL: mislocked_mailbox.cpp failed for the wrong "
              "reason (expected a thread-safety diagnostic):")
        print(result.stderr)
        failures += 1
    else:
        print("ok: mislocked_mailbox.cpp rejected with a thread-safety "
              "diagnostic, as required")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
