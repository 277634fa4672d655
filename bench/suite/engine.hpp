// sbft_bench engine: one serving path, four workloads.
//
// Every workload drives the same deployment — ShardedCluster, n = 16
// servers per group, TCP loopback, one reactor thread, mux with
// batching (64 ops, 200 us) and shared FLUSH — and differs only in the
// traffic it offers. A run is: set-up (construct + Start + one write to
// every key, repeated and timed), an unmeasured warm-up, the measured
// window, a bounded drain, then the correctness checks. Latency is
// charged from the intended start (the scheduled arrival in an open
// loop, the previous completion in a closed loop).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "verdict.hpp"

namespace sbft::suite {

struct Workload {
  const char* name;
  /// Open loop: Poisson arrivals at `rate` from one generator thread.
  /// Closed loop: one client per key, alternating write -> read, the
  /// next op issued from the previous one's completion callback.
  bool open_loop;
  double rate_ops_per_sec;  // open loop only
  double read_fraction;     // open loop only
  std::size_t keys;         // closed loop: also the client count
  std::size_t groups;
  /// Corrupt every server (agreeing garbage) mid-window and measure
  /// stabilization.
  bool corrupt;
};

[[nodiscard]] const std::vector<Workload>& Workloads();
[[nodiscard]] const Workload* FindWorkload(std::string_view name);

struct RunConfig {
  std::uint64_t seed = 1;
  double warmup_s = 2.0;
  double window_s = 20.0;
  /// Set-up is repeated this many times; setup_s is the median and the
  /// last cluster built serves the run.
  int setups = 15;
  /// Directory for <workload>.trace.json; empty = untraced run.
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a percentile (0 when not a percentile).
  std::uint64_t samples = 0;
  /// The value as measured, when `value` is scaled to the reference host
  /// speed (meter.hpp).
  std::optional<double> measured = std::nullopt;
};

struct RunReport {
  /// Declared in BENCHMARK.json as end_to_end / per_layer. per_layer is
  /// filled by traced runs only.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Printed but not declared: too noisy on a shared host to gate.
  std::vector<Metric> printed;
  /// Median HostMeter pass time from set-up to window end, ns.
  double host_pass_ns = 0;
  Tally tally;
  /// Aborted reads invoked between the fault and the stabilization
  /// point: allowed by the paper (Lemma 7), so not counted as failures.
  std::size_t excused_aborts = 0;
  Verdict verdict;
  /// Set when the run could not be measured (set-up failed, the trace
  /// could not be written); the metrics are then not to be used.
  std::string error;
};

[[nodiscard]] RunReport RunWorkload(const Workload& workload,
                                    const RunConfig& config);

}  // namespace sbft::suite
