// Wire messages for the core protocol (Figures 1-3) and the baseline
// protocols, plus the frame codec.
//
// A frame is [type: u8][payload]; decoding returns Result so garbage
// frames (transient channel corruption, Byzantine noise) degrade to a
// clean decode error. Even a *successfully* decoded frame may carry
// semantic garbage — handlers validate every field before use.
//
// Opaque payloads (register values, mux inner frames) are BytesView on
// the wire structs: encoding borrows the caller's bytes, decoding
// borrows the frame being decoded. A decoded message is therefore valid
// only while its frame is — handlers copy (ToBytes) exactly when a
// value is stored into long-lived state. See docs/ARCHITECTURE.md,
// "Buffer ownership".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "labels/read_label_pool.hpp"
#include "labels/timestamp.hpp"
#include "labels/unbounded_timestamp.hpp"

namespace sbft {

/// Register values are opaque bytes.
using Value = Bytes;

/// A (value, timestamp) pair as stored in servers' old_vals history and
/// clients' recent-write sets: the owned form.
struct VersionedValue {
  Value value;
  Timestamp ts;

  friend bool operator==(const VersionedValue&, const VersionedValue&) =
      default;
};

/// The same pair as it crosses the wire inside REPLY: the value borrows
/// either the sender's state (encode) or the frame (decode).
struct WireVersioned {
  /// The shortest entry: an empty value's length prefix, a label with
  /// no antistings (u16 sting, one-byte count) and a writer id.
  static constexpr std::size_t kMinWireBytes = 4 + 3 + 4;

  BytesView value;
  Timestamp ts;

  void EncodeInto(BufWriter& w) const;
  static WireVersioned DecodeFrom(BufReader& r);

  friend bool operator==(const WireVersioned& a, const WireVersioned& b) {
    return a.ts == b.ts && SameBytes(a.value, b.value);
  }
};

[[nodiscard]] inline WireVersioned AsWire(const VersionedValue& v) {
  return WireVersioned{v.value, v.ts};
}
[[nodiscard]] inline VersionedValue ToOwned(const WireVersioned& v) {
  return VersionedValue{ToBytes(v.value), v.ts};
}

/// Which bounded-label pool a FLUSH round is draining. The paper flushes
/// read labels (Figure 3); we apply the identical mechanism to write
/// operation labels (see DESIGN.md, "Writer stale-reply disambiguation").
enum class OpScope : std::uint8_t { kRead = 0, kWrite = 1 };

using OpLabel = std::uint32_t;

// --- Core protocol messages (Figures 1-3) ----------------------------

/// Writer phase 1: request the server's current timestamp.
struct GetTsMsg {
  OpLabel op_label = 0;

  void EncodeInto(BufWriter& w) const;
  static GetTsMsg DecodeFrom(BufReader& r);
};
/// Server's answer to GET_TS.
struct TsReplyMsg {
  Timestamp ts;
  OpLabel op_label = 0;

  void EncodeInto(BufWriter& w) const;
  static TsReplyMsg DecodeFrom(BufReader& r);
};
/// Writer phase 2: the effective write.
struct WriteMsg {
  BytesView value;
  Timestamp ts;
  OpLabel op_label = 0;

  void EncodeInto(BufWriter& w) const;
  static WriteMsg DecodeFrom(BufReader& r);
};
/// ACK (ts accepted as new) or NACK (ts did not follow the local one);
/// either way the server adopted the write (Figure 1 server side).
struct WriteReplyMsg {
  bool ack = false;
  OpLabel op_label = 0;

  void EncodeInto(BufWriter& w) const;
  static WriteReplyMsg DecodeFrom(BufReader& r);
};
/// Reader request (Figure 2 line 05).
struct ReadMsg {
  OpLabel label = 0;

  void EncodeInto(BufWriter& w) const;
  static ReadMsg DecodeFrom(BufReader& r);
};
/// Server reply: current value+ts and the recent-writes history used to
/// build the union WTsG (Figure 2(b) line 02).
struct ReplyMsg {
  BytesView value;
  Timestamp ts;
  std::vector<WireVersioned> old_vals;
  OpLabel label = 0;

  void EncodeInto(BufWriter& w) const;
  static ReplyMsg DecodeFrom(BufReader& r);
};
/// A ReplyMsg whose old_vals history is validated but NOT materialized:
/// `old_vals_raw` is the count-prefixed encoded run, borrowed from the
/// frame. The history feeds only the union WTsG, which a read builds
/// only when the local graph fails to certify (contention or
/// pre-stabilization) — so the common path skips decoding
/// history_window timestamps per reply per server.
struct LazyReplyMsg {
  BytesView value;
  Timestamp ts;
  BytesView old_vals_raw;
  std::uint32_t old_count = 0;
  OpLabel label = 0;
};
/// Decode `frame` as a ReplyMsg without materializing old_vals.
/// Accepts and rejects exactly the frames DecodeMessage would: both
/// frame the history the same way, and each history timestamp is walked
/// by Timestamp::Skip, which applies Decode's checks. nullopt when the
/// frame is not a well-formed REPLY.
[[nodiscard]] std::optional<LazyReplyMsg> DecodeReplyLazy(BytesView frame);
/// Reader completion notice (Figure 2 lines 12/19).
struct CompleteReadMsg {
  OpLabel label = 0;

  void EncodeInto(BufWriter& w) const;
  static CompleteReadMsg DecodeFrom(BufReader& r);
};
/// FIFO flush probe (Figure 3 line 04).
struct FlushMsg {
  OpLabel label = 0;
  OpScope scope = OpScope::kRead;

  void EncodeInto(BufWriter& w) const;
  static FlushMsg DecodeFrom(BufReader& r);
};
/// Reflected flush probe (Figure 3(b)).
struct FlushAckMsg {
  OpLabel label = 0;
  OpScope scope = OpScope::kRead;

  void EncodeInto(BufWriter& w) const;
  static FlushAckMsg DecodeFrom(BufReader& r);
};

// --- Baseline quorum registers (ABD, BFT-unbounded, TM_1R) ---------
//
// The three baselines run one protocol: GET_TS, then WRITE/ACK, plus a
// one-phase READ (baselines/quorum_register.hpp). Its three requests and
// acks carry only the operation id; the three messages that carry a
// timestamp come once per timestamp kind, UnboundedTs (ABD,
// BFT-unbounded) and Timestamp (TM_1R's bounded labels).

/// Writer phase 1: request the server's timestamp.
struct QuorumGetTsMsg {
  std::uint64_t rid = 0;

  void EncodeInto(BufWriter& w) const;
  static QuorumGetTsMsg DecodeFrom(BufReader& r);
};
/// Server's answer to GET_TS.
template <typename Ts>
struct QuorumTsReplyMsg {
  std::uint64_t rid = 0;
  Ts ts;

  void EncodeInto(BufWriter& w) const;
  static QuorumTsReplyMsg DecodeFrom(BufReader& r);
};
/// Writer phase 2: the write itself.
template <typename Ts>
struct QuorumWriteMsg {
  std::uint64_t rid = 0;
  Ts ts;
  BytesView value;

  void EncodeInto(BufWriter& w) const;
  static QuorumWriteMsg DecodeFrom(BufReader& r);
};
struct QuorumWriteAckMsg {
  std::uint64_t rid = 0;

  void EncodeInto(BufWriter& w) const;
  static QuorumWriteAckMsg DecodeFrom(BufReader& r);
};
struct QuorumReadMsg {
  std::uint64_t rid = 0;

  void EncodeInto(BufWriter& w) const;
  static QuorumReadMsg DecodeFrom(BufReader& r);
};
/// Server's current (ts, value).
template <typename Ts>
struct QuorumReadReplyMsg {
  std::uint64_t rid = 0;
  Ts ts;
  BytesView value;

  void EncodeInto(BufWriter& w) const;
  static QuorumReadReplyMsg DecodeFrom(BufReader& r);
};

// --- Multiplexing envelope (multi-register storage service) -----------

/// One register's sub-frame inside a MuxBatchMsg: an inner protocol
/// frame tagged with a register identifier, letting one server process
/// host many independent registers (core/mux.hpp). The identifier is
/// typically a 64-bit key hash; the inner frame is a view.
struct MuxItem {
  /// A register id and an empty inner frame's length prefix.
  static constexpr std::size_t kMinWireBytes = 8 + 4;

  std::uint64_t register_id = 0;
  BytesView inner;

  void EncodeInto(BufWriter& w) const;
  static MuxItem DecodeFrom(BufReader& r);

  friend bool operator==(const MuxItem& a, const MuxItem& b) {
    return a.register_id == b.register_id && SameBytes(a.inner, b.inner);
  }
};

/// Many registers' sub-frames coalesced into one physical frame: the
/// protocol-round batching envelope. A server decodes one MuxBatchMsg
/// and applies the whole vector of register sub-ops; the replies it
/// produces while dispatching are coalesced the same way, so one frame
/// per link carries one protocol phase of many logical ops (see
/// docs/ARCHITECTURE.md, "Protocol-round batching"). The inner payloads
/// are views into the frame being decoded. It is the only envelope that
/// carries register traffic: a batch of one is the single-op frame.
struct MuxBatchMsg {
  std::vector<MuxItem> items;

  void EncodeInto(BufWriter& w) const;
  static MuxBatchMsg DecodeFrom(BufReader& r);
};

/// One register's flush request inside a node-level shared FLUSH round
/// (docs/ARCHITECTURE.md, "Shared FLUSH rounds"): the label the register
/// is about to use and the pool it drains.
struct FlushItem {
  /// Register id, label and scope: every item has this size.
  static constexpr std::size_t kWireBytes = 8 + 4 + 1;

  std::uint64_t register_id = 0;
  OpLabel label = 0;
  OpScope scope = OpScope::kRead;

  void EncodeInto(BufWriter& w) const;
  static FlushItem DecodeFrom(BufReader& r);

  friend bool operator==(const FlushItem&, const FlushItem&) = default;
};

/// One FLUSH probe for a whole batch window: every register that joined
/// the window contributes a FlushItem, and a single ack from a server
/// proves FIFO drain for all of them at once, because multiplexed
/// registers share ONE FIFO channel per client-server pair. Like
/// MuxBatch, a malformed element rejects the whole frame.
struct NodeFlushMsg {
  std::vector<FlushItem> items;

  void EncodeInto(BufWriter& w) const;
  static NodeFlushMsg DecodeFrom(BufReader& r);
};

/// Reflected node-level flush probe. An honest server echoes the item
/// vector verbatim (the per-register FLUSH_ACK is a pure echo too); a
/// Byzantine server may equivocate labels per item, which the client's
/// per-register stale-ack filtering absorbs.
struct NodeFlushAckMsg {
  std::vector<FlushItem> items;

  void EncodeInto(BufWriter& w) const;
  static NodeFlushAckMsg DecodeFrom(BufReader& r);
};

using Message = std::variant<
    GetTsMsg, TsReplyMsg, WriteMsg, WriteReplyMsg, ReadMsg, ReplyMsg,
    CompleteReadMsg, FlushMsg, FlushAckMsg,
    QuorumGetTsMsg, QuorumWriteAckMsg, QuorumReadMsg,
    QuorumTsReplyMsg<UnboundedTs>, QuorumWriteMsg<UnboundedTs>,
    QuorumReadReplyMsg<UnboundedTs>,
    QuorumTsReplyMsg<Timestamp>, QuorumWriteMsg<Timestamp>,
    QuorumReadReplyMsg<Timestamp>,
    MuxBatchMsg, NodeFlushMsg, NodeFlushAckMsg>;

/// Frame codec. Encode never fails; Decode fails on unknown type bytes,
/// truncation, implausible lengths, or trailing garbage. Decode is
/// dispatched through a tag-indexed table built from the per-type
/// DecodeFrom entries — adding a message type means adding a struct, its
/// codec members, a tag, and a line in the variant; there is no switch
/// to keep in sync.
void EncodeMessageInto(const Message& message, BufWriter& w);
[[nodiscard]] Bytes EncodeMessage(const Message& message);
[[nodiscard]] Result<Message> DecodeMessage(BytesView frame);

/// The MuxBatchMsg fast path. Already-encoded inner frames stream into one
/// pooled buffer as they are produced; the count prefix is patched when
/// the frame is taken, so there is no second encode and no intermediate
/// item vector. Take() is byte-identical to
/// EncodeMessage(Message(MuxBatchMsg{items})) for the same item
/// sequence and resets the builder for the next frame.
class MuxBatchBuilder {
 public:
  void Add(std::uint64_t register_id, BytesView inner);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] Bytes Take();

 private:
  BufWriter writer_;
  std::uint32_t count_ = 0;
};

/// Human-readable tag, for traces and test diagnostics.
[[nodiscard]] std::string MessageTypeName(const Message& message);

}  // namespace sbft
