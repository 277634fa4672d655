// Executable Theorem 1: the adversarial execution from the lower-bound
// proof, replayed against a TM_1R protocol (quorum_register.hpp, Tm1rRules).
//
// Proof structure (§III), generalized from 5 servers to 5f by replacing
// each server with a group of f:
//   * groups: A_fast (2f correct), A_slow (f correct), S4 (f correct,
//     initially corrupted to hold ts2), B (f Byzantine, scripted);
//     with `extra_correct`, A_fast grows by that many servers (n > 5f
//     deployments, where the attack provably fails);
//   * labels precomputed exactly as the adversary would:
//       tsx = initial, tb = Byzantine's private label,
//       ts0 = next({tsx, tb}), ts1 = next({ts0, tb}),
//       ts2 = next({ts1, tb})   <- planted in S4 by the transient fault;
//   * schedule: w0 and w1 run with S4 fully held (the proof's "s4 was
//     slow"); r1 reads with A_slow held, so its reply multiset is
//     {ts1 x (A_fast), ts2 x (S4 + Byzantine mimicking S4)};
//     w2 runs with S4's replies held until the timestamp is computed
//     (so it introduces exactly ts2) and with the WRITE to A_slow frozen
//     in flight (the proof's "s3 is slow in modifying its timestamp");
//     r2 reads with S4 held, so its multiset is
//     {ts2 x (A_fast), ts1 x (A_slow + Byzantine mimicking A_slow)}.
//
// With n = 5f the two reads face timestamp multisets with identical
// counts ({X x 2f, Y x 2f}), so any deterministic multiset decision
// returns "the same shape" twice while regularity demands w1's value
// from r1 and w2's value from r2 — at least one read must violate.
// With one extra correct server (n = 5f+1) the fresh timestamp holds a
// strict plurality (2f+1 vs 2f) in both reads and the attack fails.
#pragma once

#include <cstdint>
#include <string>

#include "spec/history.hpp"
#include "spec/regular_checker.hpp"

namespace sbft {

struct ReplayOptions {
  std::uint32_t f = 1;
  /// Additional correct servers beyond 5f (0 = the impossible setting,
  /// 1 = the paper's tight bound n = 5f+1).
  std::uint32_t extra_correct = 0;
  std::uint64_t seed = 1;
};

struct ReplayResult {
  bool all_ops_completed = false;
  Bytes r1_value;
  Bytes r2_value;
  History history;
  CheckReport report;
  /// Convenience: !report.ok.
  [[nodiscard]] bool violated() const { return !report.ok; }
  [[nodiscard]] std::string Summary() const;
};

ReplayResult RunTheorem1Replay(const ReplayOptions& options);

}  // namespace sbft
