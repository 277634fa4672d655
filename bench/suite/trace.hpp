// Traced runs: counters sampled on a timer, and the spans of sampled
// ops written out in Chrome trace-event format (chrome://tracing,
// ui.perfetto.dev) once the run is over.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "oplog.hpp"
#include "sampler.hpp"

namespace sbft::suite {

struct CounterSample {
  std::uint32_t t_us = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t protocol_cpu_ns = 0;
  std::uint64_t process_cpu_ns = 0;
  std::uint64_t ctx_switches = 0;
  std::uint64_t ok = 0;
  std::uint64_t aborted = 0;
};

using CounterSampler = PeriodicSampler<CounterSample>;

struct TraceMark {
  const char* name;
  std::uint32_t t_us;
};

/// One `op` span per sampled op with its three children, which tile it
/// exactly: gen.queue (due -> submit), router.submit (the router call)
/// and await (call return -> completion). All four carry the op id.
/// Returns false when the file cannot be written.
[[nodiscard]] bool WriteChromeTrace(const std::string& path,
                                    const std::string& workload,
                                    std::span<const Op> ops,
                                    std::size_t span_stride,
                                    std::span<const CounterSample> counters,
                                    std::span<const TraceMark> marks);

/// Where an op's router call ends on the trace clock, in microseconds:
/// the measured duration, cut short if the completion was stamped first
/// (the callback may run on a node thread before the call returns).
[[nodiscard]] double SubmitEndUs(const Op& op);

}  // namespace sbft::suite
