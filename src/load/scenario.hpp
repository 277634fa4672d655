// Declarative scenario matrix for the open-loop workload engine.
//
// A Scenario is a small value struct: offered-load profile (flat rate
// or rate ramp), key popularity (Zipf skew over mux registers),
// read/write mix, link shaping, and transient-corruption injection
// points. Scenarios compose by setting fields — the presets below are
// just constructors for the matrix bench_load drives — and compile to
// a deterministic operation schedule via BuildSchedule: same seed,
// same arrival/key/kind sequence, on every machine (the acceptance
// test for the engine; see tests/load/generators_test.cpp).
//
// The schedule is the OFFERED load. What the cluster actually does
// with it (latencies, aborts, stabilization after corruption) is the
// measurement, taken by load::OpenLoopDriver.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load/generators.hpp"
#include "runtime/sharded_cluster.hpp"

namespace sbft::load {

/// Transient server-state corruption injected mid-load (the paper's
/// §II transient-fault model under real traffic): at `at_us` into the
/// run, CorruptState every server in `servers` (all servers when
/// empty).
struct CorruptionSpec {
  std::uint64_t at_us = 0;
  std::vector<std::size_t> servers;  // empty = all
};

struct Scenario {
  std::string name = "baseline";
  std::uint32_t n_servers = 6;
  /// Logical keys; each is its own mux register of the deployment
  /// (ShardedCluster maps key k to register k + 1 of its group).
  std::size_t n_keys = 32;
  /// Zipf skew over keys; 0 = uniform, ~1 = classic hot-key contention.
  double zipf_skew = 0.0;
  /// Fraction of operations that are reads.
  double read_fraction = 0.5;
  /// Flat offered rate. Ignored when `phases` is non-empty.
  double rate_ops_per_sec = 1000.0;
  std::uint64_t duration_us = 1'000'000;
  /// Piecewise-constant rate profile (flash crowds); overrides
  /// rate_ops_per_sec/duration_us when non-empty.
  std::vector<RatePhase> phases;
  /// Link shaping applied to every inter-node link of the cluster.
  LinkShaping shaping;
  std::vector<CorruptionSpec> corruptions;
  /// Independent register groups behind the consistent-hash router
  /// (runtime/sharded_cluster.hpp). 1 = the classic single-group
  /// deployment (the router front-end costs one uncontended mutex
  /// acquisition per op).
  std::size_t n_groups = 1;
  /// When non-zero: at this point into the run, grow the deployment by
  /// one group (ShardedCluster::AddGroup) while traffic flows — the
  /// shard-map epoch bumps and ~1/(G+1) of the keys migrate via
  /// drain-and-handoff.
  std::uint64_t group_add_at_us = 0;
  std::uint64_t seed = 1;

  [[nodiscard]] std::uint64_t TotalDurationUs() const {
    return phases.empty() ? duration_us : ProfileDurationUs(phases);
  }
};

/// One scheduled operation of the offered load.
struct ScheduledOp {
  std::uint64_t at_us = 0;   // intended start, offset from run start
  std::uint32_t key = 0;     // logical key / mux register
  bool is_write = false;
  std::uint32_t seq = 0;     // per-key write sequence (unique values)
};

/// Compile a scenario to its deterministic operation schedule, sorted
/// by arrival time.
[[nodiscard]] std::vector<ScheduledOp> BuildSchedule(const Scenario& scenario);

/// The unique value written by a scheduled write (key + per-key
/// sequence): what the checker uses to identify writes.
[[nodiscard]] Value ValueFor(const ScheduledOp& op);

/// Deployment options matching a scenario: `n_groups` groups of
/// `n_servers` servers serving `n_keys` keys, with its shaping and
/// seed (n_groups = 1 is the single-group deployment).
[[nodiscard]] ShardedCluster::Options ShardedOptionsFor(
    const Scenario& scenario);

// --- Presets: the adversarial traffic matrix ------------------------------

/// Uniform keys, 50/50 mix, flat rate.
[[nodiscard]] Scenario BaselineScenario(double rate, std::uint64_t duration_us,
                                        std::uint64_t seed);
/// Zipf-skewed popularity: most traffic lands on a handful of
/// registers, serializing on the per-register protocol instance.
[[nodiscard]] Scenario ZipfHotScenario(double rate, std::uint64_t duration_us,
                                       std::uint64_t seed);
/// Flash crowd: base rate, a 4x spike for the middle fifth of the run,
/// then base again.
[[nodiscard]] Scenario FlashCrowdScenario(double base_rate,
                                          std::uint64_t duration_us,
                                          std::uint64_t seed);
/// 90% reads.
[[nodiscard]] Scenario ReadHeavyScenario(double rate,
                                         std::uint64_t duration_us,
                                         std::uint64_t seed);
/// Every link delayed by `delay_us` (+/- jitter).
[[nodiscard]] Scenario SlowLinkScenario(double rate, std::uint64_t duration_us,
                                        std::uint64_t delay_us,
                                        std::uint64_t seed);
/// Mid-load transient corruption of every server at duration/4 — the
/// paper-specific measurement (stabilization under traffic).
[[nodiscard]] Scenario CorruptionScenario(double rate,
                                          std::uint64_t duration_us,
                                          std::uint64_t seed);
/// Sharded deployment: uniform keys over `n_groups` independent
/// register groups (name "g<N>").
[[nodiscard]] Scenario ShardedScenario(std::size_t n_groups, double rate,
                                       std::uint64_t duration_us,
                                       std::uint64_t seed);
/// Live scale-out: starts at one group, adds a second at duration/3
/// while traffic flows (name "g2_migrate"); the per-key regularity
/// checker must pass straight through the epoch bump.
[[nodiscard]] Scenario MigrateScenario(double rate,
                                       std::uint64_t duration_us,
                                       std::uint64_t seed);

}  // namespace sbft::load
