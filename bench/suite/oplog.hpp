// The benchmark's operation log: one fixed-size record per operation,
// allocated and pre-faulted before set-up so that neither the log's
// memory nor an allocation per op is charged to the program.
#pragma once

#include <cstdint>

namespace sbft::suite {

enum class OpState : std::uint8_t { kPending, kOk, kAborted, kFailed };

/// Times are microseconds since the run's origin (taken before set-up).
struct Op {
  std::uint32_t key = 0;
  /// Write: sequence number of the value written (set-up writes 0).
  /// Ok read: sequence number of the value returned, or one of the
  /// sentinels below.
  std::uint32_t seq = 0;
  /// Intended start: scheduled arrival (open loop) or the previous
  /// op's completion (closed loop).
  std::uint32_t due_us = 0;
  /// Call into the router (the op's invocation for the checker).
  std::uint32_t submit_us = 0;
  /// Duration of the router call; measured in traced runs only.
  std::uint32_t submit_ns = 0;
  /// Completion callback (the op's return for the checker).
  std::uint32_t done_us = 0;
  bool is_write = false;
  OpState state = OpState::kPending;
};

/// Read returned the register's initial (empty) value.
inline constexpr std::uint32_t kEmptySeq = 0xFFFFFFFFu;
/// Read returned bytes that are not a value of this key.
inline constexpr std::uint32_t kForeignSeq = 0xFFFFFFFEu;

}  // namespace sbft::suite
