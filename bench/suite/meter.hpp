// Host speed. The benchmark runs on shared virtual machines whose speed
// drifts by up to 2x over minutes, with how hard other tenants use the
// cache and memory they share with it; a raw time from one run then
// says little about a run taken minutes later. HostMeter times a fixed
// pass of the benchmark's own code on a thread of its own while the
// program runs, and the engine scales the times that follow host speed
// to a reference pass time (README.md, "Host speed").
#pragma once

#include <cstdint>
#include <vector>

#include "sampler.hpp"

namespace sbft::suite {

/// Median pass time, in ns, of the host the bounds in BENCHMARK.json
/// were measured on. Adjusted metrics are what a host taking exactly
/// this long would show; comparisons divide the constant out.
inline constexpr double kReferencePassNs = 75'000;

/// The program's times move as this power of the meter's: over 160 runs
/// of the four workloads, the log-log slope of measured latency,
/// closed-loop throughput and set-up time on pass time was 1.0-1.8
/// (README.md, "Host speed").
inline constexpr double kProgramElasticity = 1.5;

/// The factor that scales a time the program took, while the meter's
/// median pass took `pass_ns`, to the reference host; a rate is divided
/// by it. 1 when no pass ran.
[[nodiscard]] double ToReferenceHost(double pass_ns);

/// CPU time of the calling thread.
[[nodiscard]] std::uint64_t ThreadCpuNs();

/// Times one pass every 50 ms, from construction until Stop().
class HostMeter {
 public:
  HostMeter();
  HostMeter(const HostMeter&) = delete;
  HostMeter& operator=(const HostMeter&) = delete;

  /// Joins the thread; returns the median thread-CPU time of one pass,
  /// in ns (0 when no pass ran).
  double Stop();

 private:
  std::vector<std::uint64_t> table_;
  PeriodicSampler<double> sampler_;  // last: its thread uses table_
};

}  // namespace sbft::suite
