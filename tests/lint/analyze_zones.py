#!/usr/bin/env python3
"""Zone gate for tools/sbft_analyze.py (ctest label: lint).

--check-fixture runs every check on every file, so the fixture corpus
cannot show that tree mode applies each check to the right part of src/.
This test copies src/ to a temp dir, appends the planted sites below to
real files, runs the analyser once in tree mode and requires exactly the
findings marked: every in-zone site is flagged under its check, and the
out-of-zone sites and the reporting-only clock read stay silent.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

MARK = "// <- planted"

# (file, check expected on the marked line or None, appended code)
PLANTS = [
    ("src/sim/world.cpp", "nondet-random", """
namespace sbft {
int PlantedDraw() { return rand(); }  // <- planted
}  // namespace sbft
"""),
    ("src/labels/bounded_label.cpp", "thread-id", """
namespace sbft {
std::thread::id PlantedThread() {
  return std::this_thread::get_id();  // <- planted
}
}  // namespace sbft
"""),
    ("src/fuzz/scenario.cpp", "address-as-value", """
namespace sbft::fuzz {
std::uintptr_t PlantedKey(const Scenario& scenario) {
  return reinterpret_cast<std::uintptr_t>(&scenario);  // <- planted
}
}  // namespace sbft::fuzz
"""),
    ("src/core/mux.cpp", "raw-alloc", """
namespace sbft {
std::uint8_t* PlantedBytes(std::size_t n) {
  return new std::uint8_t[n];  // <- planted
}
}  // namespace sbft
"""),
    ("src/net/message.cpp", "raw-alloc", """
namespace sbft {
void* PlantedBuffer(std::size_t n) {
  return malloc(n);  // <- planted
}
}  // namespace sbft
"""),
    ("src/core/mux.cpp", "unordered-iteration", """
namespace sbft {
std::uint64_t MuxServer::PlantedSum() {
  std::uint64_t sum = 0;
  for (const auto& kv : registers_) sum = sum * 31 + kv.first;  // <- planted
  return sum;
}
}  // namespace sbft
"""),
    ("src/core/mux.cpp", "unordered-iteration", """
namespace sbft {
std::uint64_t MuxServer::PlantedIds() {
  std::uint64_t sum = 0;
  for (const auto& [id, reg] : registers_) sum = sum * 31 + id;  // <- planted
  return sum;
}
}  // namespace sbft
"""),
    ("src/spec/regular_checker.cpp", "unordered-iteration", """
namespace sbft {
std::uint64_t PlantedChecksum() {
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  std::uint64_t sum = 0;
  for (const auto& [k, v] : counts) sum = sum * 31 + v;  // <- planted
  return sum;
}
}  // namespace sbft
"""),
    ("src/sim/world.cpp", "wall-clock", """
namespace sbft {
class PlantedEpoch {
 public:
  void Mark() {
    epoch_ = std::chrono::steady_clock::now();  // <- planted
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};
}  // namespace sbft
"""),
    ("src/core/client.cpp", "wall-clock", """
namespace sbft {
void PlantedReseed(Rng& rng) {
  rng.Seed(std::chrono::steady_clock::now().time_since_epoch().count());  // <- planted
}
}  // namespace sbft
"""),
    ("src/baselines/quorum_register.cpp", "wall-clock", """
namespace sbft {
long PlantedStamp() {
  const auto now = std::chrono::high_resolution_clock::now();
  return now.time_since_epoch().count();  // <- planted
}
}  // namespace sbft
"""),
    ("src/labels/timestamp.cpp", "wall-clock", """
namespace sbft {
long PlantedTimeOfDay() {
  timeval tv{};
  gettimeofday(&tv, nullptr);  // <- planted
  return tv.tv_usec;
}
}  // namespace sbft
"""),
    ("src/core/server.cpp", "wall-clock", """
namespace sbft {
long PlantedMonotonic() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // <- planted
  return ts.tv_nsec;
}
}  // namespace sbft
"""),
    ("src/sim/trace.cpp", "wall-clock", """
namespace sbft {
long PlantedWallSeconds() {
  return static_cast<long>(time(nullptr));  // <- planted
}
}  // namespace sbft
"""),
    # Policy: a clock read that only feeds a budget comparison is
    # reporting, as in src/fuzz/campaign.cpp.
    ("src/fuzz/shrink.cpp", None, """
namespace sbft::fuzz {
bool PlantedOverBudget(double budget_seconds) {
  const auto started = std::chrono::steady_clock::now();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;
  return elapsed.count() >= budget_seconds;  // <- planted
}
}  // namespace sbft::fuzz
"""),
    # Outside every zone the site's check covers.
    ("src/runtime/cluster.cpp", None, """
namespace sbft {
int* PlantedCounter() {
  return new int(0);  // <- planted
}
}  // namespace sbft
"""),
    ("src/load/driver.cpp", None, """
namespace sbft::load {
int PlantedJitter() { return rand() % 7; }  // <- planted
}  // namespace sbft::load
"""),
]

FINDING_RE = re.compile(r"^(src/\S+):(\d+): \[([a-z-]+)\]")


def plant(tree: str):
    """Append every plant; return the expected {(file, line, check)}."""
    expected = set()
    for rel, check, code in PLANTS:
        path = os.path.join(tree, rel)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if not text.endswith("\n"):
            text += "\n"
        first = text.count("\n") + 1
        marked = [first + i for i, line in enumerate(code.splitlines())
                  if MARK in line]
        assert len(marked) == 1, f"plant in {rel} needs one {MARK!r} line"
        if check is not None:
            expected.add((rel, marked[0], check))
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + code)
    return expected


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--analyzer", required=True)
    parser.add_argument("--repo-root", required=True)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(args.repo_root, "src"),
                        os.path.join(tmp, "src"))
        expected = plant(tmp)
        result = subprocess.run(
            [sys.executable, args.analyzer, "--repo-root", tmp,
             "--frontend", "internal", os.path.join(tmp, "src")],
            capture_output=True, text=True, check=False)

    found = set()
    for line in result.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            found.add((m.group(1), int(m.group(2)), m.group(3)))
    missing, unexpected = expected - found, found - expected
    for rel, line, check in sorted(missing):
        print(f"FAIL: missed {rel}:{line} [{check}]")
    for rel, line, check in sorted(unexpected):
        print(f"FAIL: unexpected {rel}:{line} [{check}]")
    if result.returncode != 1:
        print(f"FAIL: analyzer exited {result.returncode}, expected 1")
        print(result.stderr)
    if missing or unexpected or result.returncode != 1:
        return 1
    print(f"ok: {len(expected)} in-zone sites flagged, "
          f"{len(PLANTS) - len(expected)} others silent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
