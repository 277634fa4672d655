// Open-loop workload driver for the threaded register cluster.
//
// Closed-loop drivers (bench_throughput) only ever ask the system for
// as much as it just delivered — a saturated cluster quietly measures
// itself at its own pace. The open-loop driver instead fixes the
// OFFERED load: operations start at pre-computed Poisson arrival times
// whether or not earlier ones finished, the way independent clients
// behave. Each logical key admits one in-flight operation (the mux
// client's per-register contract), so an overloaded key builds a
// queue; the latency of a queued operation is charged from its
// INTENDED arrival time, not from when it finally launched — the
// coordinated-omission-free measurement (docs/LOAD_TESTING.md).
//
// The driver also injects the scenario's transient corruptions
// mid-run (ShardedCluster::CorruptServer) and hands back a History
// whose timestamps feed CheckRegular / MeasureStabilization, making
// "time to stabilize under traffic" a measurable quantity.
#pragma once

#include <cstdint>

#include "load/histogram.hpp"
#include "load/scenario.hpp"
#include "spec/history.hpp"

namespace sbft::load {

/// Everything one open-loop run produced. Counters partition
/// `scheduled`: ok + aborted + failed returned; pending launched but
/// never returned within the drain window; unlaunched still queued
/// behind a slow key when the drain window closed.
struct LoadResult {
  std::size_t scheduled = 0;
  std::size_t launched = 0;
  std::size_t ok = 0;
  std::size_t aborted = 0;
  std::size_t failed = 0;
  std::size_t pending = 0;
  std::size_t unlaunched = 0;

  /// Fraction of scheduled operations that RETURNED (any verdict) —
  /// the load-shedding signal: < 1 means the cluster could not keep up
  /// with the offered rate inside the drain window.
  double completed_frac = 0.0;
  /// Ok operations per wall-clock second over the measured window.
  double achieved_ops_per_sec = 0.0;
  /// Run start to last return (or drain deadline), microseconds.
  std::uint64_t run_duration_us = 0;
  /// Return time of the earliest successful write (stabilization point
  /// of Theorem 2 for corruption-free runs); ~0 if no write succeeded.
  std::uint64_t first_write_done_us = ~0ull;
  /// Actual injection stamps of the scenario's corruptions, run-
  /// relative microseconds (same clock as the History).
  std::vector<std::uint64_t> corruption_times_us;
  /// When the scenario grew the deployment (group_add_at_us): the stamp
  /// at which the new shard-map epoch was installed (~0 if never), the
  /// deployment's final group count / epoch, and how many migrated keys
  /// were still read-anchored to their old group at run end.
  std::uint64_t group_add_time_us = ~0ull;
  std::size_t final_groups = 0;
  std::uint64_t final_epoch = 0;
  std::size_t keys_awaiting_handoff = 0;

  /// Intended-start latencies (schedule time -> completion) of ok ops.
  LatencyHistogram write_latency;
  LatencyHistogram read_latency;

  /// Launched operations only, timestamps in run-relative microseconds
  /// (invoked_at = actual launch, for oracle soundness).
  History history;
};

/// Run `scenario` against a freshly built ShardedCluster (n_groups
/// register groups behind the consistent-hash router; one group is the
/// classic deployment) and return the measurement. The schedule is deterministic per scenario seed;
/// the measured side (latencies, verdicts) is whatever the machine
/// does with it.
[[nodiscard]] LoadResult RunOpenLoop(const Scenario& scenario);

}  // namespace sbft::load
