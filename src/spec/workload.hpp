// Randomized concurrent workload driver.
//
// Runs a mix of read() and write() operations across logical clients
// with genuine concurrency (clients interleave in virtual time) and
// produces a History for CheckRegular. Write values are unique by
// construction ("c<client>#<seq>"), which the checker requires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "sim/world.hpp"
#include "spec/history.hpp"

namespace sbft {

struct WorkloadOptions {
  /// Operations per client.
  std::uint32_t ops_per_client = 20;
  double write_fraction = 0.5;
  /// Uniform think-time between a client's operations, in ticks.
  VirtualTime max_think_time = 20;
  std::uint64_t seed = 1;
  /// Safety valve on total simulation events.
  std::uint64_t max_events = 20'000'000;
};

struct WorkloadResult {
  History history;
  /// True iff every launched operation returned within the event cap.
  bool all_completed = true;
  /// Virtual time at which the first write completed successfully —
  /// the stabilization point of Theorem 2 (kTimeForever if none did).
  VirtualTime first_write_done = kTimeForever;
};

/// Where logical client c's operations go: one register per client,
/// one operation at a time on each.
struct WorkloadTarget {
  std::size_t n_clients = 0;
  std::function<bool(std::size_t client)> idle;
  std::function<void(std::size_t client, Value value, WriteCallback done)>
      start_write;
  std::function<void(std::size_t client, ReadCallback done)> start_read;
};

/// Drive the workload on `world` to completion (or to the event cap).
WorkloadResult RunConcurrentWorkload(World& world,
                                     const WorkloadTarget& target,
                                     const WorkloadOptions& options);

/// The same over the deployment's clients: client c is its own register.
WorkloadResult RunConcurrentWorkload(Deployment& deployment,
                                     const WorkloadOptions& options);

}  // namespace sbft
