// Bounded read-operation labels (Figure 3 of the paper).
//
// Each client owns a finite pool of labels used only to match replies to
// the read operation that solicited them. The client tracks, per
// (server, label), whether that server may still hold an undelivered
// message carrying the label (`recent_labels` matrix in the paper); the
// FLUSH / FLUSH_ACK round implemented by the reader automaton exploits
// channel FIFO-ness to prove a label has drained and can be reused.
//
// The pool itself is pure bookkeeping (no messaging) so it can be unit-
// and property-tested in isolation, and so the fault injector can
// corrupt it wholesale.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace sbft {

using ReadLabel = std::uint32_t;
using ServerIndex = std::size_t;

class ReadLabelPool {
 public:
  /// `n_servers` rows by `n_labels` label columns. The paper requires
  /// only n_labels >= 2 (a label different from the last one used must
  /// exist); more labels reduce flush latency after corruption.
  /// n_servers <= 64: a label's column is one 64-bit mask.
  ReadLabelPool(std::size_t n_servers, std::size_t n_labels);

  [[nodiscard]] std::size_t n_servers() const { return n_servers_; }
  [[nodiscard]] std::size_t n_labels() const { return n_labels_; }

  /// Figure 3 line 01: pick a candidate label different from the last
  /// one used. Among the eligible labels the one with the fewest pending
  /// entries is chosen (deterministic round-robin tie-break), because
  /// every pending entry is a server that may still emit stale traffic
  /// for the label — see the line-06 guard in the client.
  [[nodiscard]] ReadLabel PickCandidate() const;

  /// Record that `server` may have an in-flight message for `label`
  /// (client just sent READ with it — Figure 2 line 06).
  void MarkPending(ServerIndex server, ReadLabel label);

  /// Record that `server` is known to have no in-flight message for
  /// `label` (REPLY or FLUSH_ACK carrying it arrived — Figure 2 line 27
  /// and Figure 3 line 12).
  void ClearPending(ServerIndex server, ReadLabel label);

  [[nodiscard]] bool IsPending(ServerIndex server, ReadLabel label) const;

  /// Number of servers still marked pending for `label` (the "column
  /// count" of Figure 3 line 06).
  [[nodiscard]] std::size_t PendingCount(ReadLabel label) const;

  /// Commit to a label for the next read and remember it as "last used".
  void SetLast(ReadLabel label) { last_ = label % n_labels_; }
  [[nodiscard]] ReadLabel last() const { return last_; }

  /// Overwrite the whole matrix and `last` with arbitrary bits: models a
  /// transient fault hitting the client. The pool must recover through
  /// the flush protocol (tested by E8 / find_label tests). Draws `last`,
  /// then one bit per (server, label) cell, servers outer.
  void Corrupt(Rng& rng);

  /// Clamp out-of-range state (e.g. after Corrupt) so accessors stay
  /// total. Called by the reader automaton before each operation; part
  /// of the stabilizing discipline of "sanitize before use".
  void SanitizeState();

 private:
  std::size_t n_servers_;
  std::size_t n_labels_;
  ReadLabel last_ = 0;
  // pending_[label]: bit s set iff server s is pending for the label.
  // One word per label keeps a column count one popcount, and a whole
  // pool in one small allocation.
  std::vector<std::uint64_t> pending_;
};

}  // namespace sbft
