// Correctness gates of a run: the per-key regular-register checker,
// stabilization after an injected fault, and op accounting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "oplog.hpp"
#include "spec/history.hpp"

namespace sbft::suite {

/// How the ops a run issued ended. ok/aborted/failed count completion
/// callbacks; unreturned counts ops that never called back.
struct Tally {
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t aborted = 0;
  std::size_t failed = 0;
  std::size_t unreturned = 0;
};

struct Verdict {
  bool correct = true;
  /// Violations the per-key checker found outside the stabilization
  /// window (every read, when no fault was injected).
  std::size_t violations = 0;
  /// Fault runs only: whether regularity returned, and the violation
  /// window measured from the fault.
  bool stabilized = false;
  double stabilize_ms = 0;
  std::uint64_t stabilized_at_us = 0;
  std::vector<std::string> reasons;
};

/// The value a write with sequence number `seq` stores at `key`.
[[nodiscard]] Value ValueOf(std::uint32_t key, std::uint32_t seq);
/// Inverse of ValueOf for `key`, or kEmptySeq / kForeignSeq.
[[nodiscard]] std::uint32_t SeqOf(std::uint32_t key, const Value& value);

/// The checker's view of the log: key k is register k, invocation is
/// the router call, return is the completion callback.
[[nodiscard]] History ToHistory(std::span<const Op> ops);

/// Judge a run. `fault_at_us` is the corruption instant, if any: reads
/// completed before it are checked as usual, and the rest must
/// stabilize (Theorem 2).
[[nodiscard]] Verdict Judge(const History& history, const Tally& tally,
                            std::optional<std::uint64_t> fault_at_us);

}  // namespace sbft::suite
