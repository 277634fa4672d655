// The correct-server automaton (Figures 1(b), 2(b), 3(b)).
//
// Per the paper, a server keeps:
//   * v_i, ts_i            — current register copy and its timestamp;
//   * old_vals_i[]         — sliding window of the last W written values
//                            (W = history_window, paper uses n), kept
//                            only in wire form: as the entries of the
//                            encoded READ reply (see reply_prefix_);
//   * running_read_i       — (reader, label) pairs of reads in progress,
//                            so concurrent writes are forwarded to them.
//
// All of this state is fair game for transient corruption; CorruptState
// overwrites every field with arbitrary (seeded) garbage, and every
// handler therefore sanitizes what it touches before use.
#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "common/small_vector.hpp"
#include "core/config.hpp"
#include "labels/labeling_system.hpp"
#include "net/message.hpp"
#include "sim/world.hpp"

namespace sbft {

class RegisterServer : public Automaton {
 public:
  RegisterServer(ProtocolConfig config, std::size_t server_index);

  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;
  void CorruptState(Rng& rng) override;

  // State inspection for tests and experiment harnesses.
  [[nodiscard]] const VersionedValue& current() const { return current_; }
  /// The old_vals window, newest first, decoded from its wire form.
  [[nodiscard]] std::vector<VersionedValue> old_vals() const;
  [[nodiscard]] std::size_t running_read_count() const {
    return running_reads_.size();
  }
  [[nodiscard]] std::size_t server_index() const { return index_; }

  /// Direct state override (used by scripted experiment setups that need
  /// a specific "corrupted" configuration, e.g. the Theorem 1 replay).
  /// The history window is kept.
  void SetState(VersionedValue vv);

 protected:
  // Handlers are virtual so Byzantine strategies can subclass and
  // selectively misbehave while inheriting honest behaviour elsewhere.
  virtual void HandleGetTs(NodeId from, const GetTsMsg& msg,
                           IEndpoint& endpoint);
  virtual void HandleWrite(NodeId from, const WriteMsg& msg,
                           IEndpoint& endpoint);
  virtual void HandleRead(NodeId from, const ReadMsg& msg,
                          IEndpoint& endpoint);
  virtual void HandleCompleteRead(NodeId from, const CompleteReadMsg& msg,
                                  IEndpoint& endpoint);
  virtual void HandleFlush(NodeId from, const FlushMsg& msg,
                           IEndpoint& endpoint);

  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] const LabelingSystem& labels() const { return labels_; }

  /// current_'s timestamp as the server exports it: a corrupted local
  /// label must not hand clients structural garbage.
  [[nodiscard]] Timestamp SanitizedTs() const {
    return Timestamp{labels_.Sanitize(current_.ts.label),
                     current_.ts.writer_id};
  }
  /// One reader's READ reply: the encoded prefix plus their op label.
  [[nodiscard]] Bytes ReplyFrameFor(OpLabel label);

  ProtocolConfig config_;
  LabelingSystem labels_;
  std::size_t index_;

  VersionedValue current_;
  std::deque<std::pair<NodeId, OpLabel>> running_reads_;

 private:
  /// Encode all of reply_prefix_ anew: current_'s value under
  /// `sanitized_ts`, then `history`.
  void BuildReplyPrefix(const Timestamp& sanitized_ts,
                        const std::vector<WireVersioned>& history = {});
  /// Splice one write into reply_prefix_: a new entry goes in front of
  /// the kept history, the oldest entry falls out at history_window, and
  /// a non-null `head` (whose timestamp is sanitized) replaces the head.
  /// The new entry is `entry`, or, when that is null, the bytes of the
  /// head being replaced.
  void SpliceWrite(const WireVersioned* head, const WireVersioned* entry);

  /// The encoded READ reply minus its trailing op label:
  ///   [REPLY tag][value][sanitized ts][count][entry 0] … [entry W−1]
  /// with the entries newest first. Every reply between state changes
  /// is byte-identical except for that label, and the entries are the
  /// server's only copy of old_vals, so a read only copies and a write
  /// encodes one (value, timestamp) pair. Empty until first use: a
  /// register is created without encoding anything, with an empty
  /// history.
  Bytes reply_prefix_;
  /// The encoded size of each entry of reply_prefix_, newest first, so
  /// a write finds where the window's oldest entry starts without
  /// walking the entries. Inline for windows up to 16 (W = n ≤ 16
  /// across the experiment suite).
  SmallVector<std::uint32_t, 16> entry_sizes_;
};

}  // namespace sbft
