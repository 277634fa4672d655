#include "net/message.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#include "common/buffer_pool.hpp"
#include "common/serialize.hpp"

namespace sbft {
namespace {

// Explicit wire tags (stable across refactors of the variant order).
enum class Tag : std::uint8_t {
  kGetTs = 1,
  kTsReply = 2,
  kWrite = 3,
  kWriteReply = 4,
  kRead = 5,
  kReply = 6,
  kCompleteRead = 7,
  kFlush = 8,
  kFlushAck = 9,
  // Baseline quorum registers. 30-35, 40, 43 and 44 are retired (they
  // carried per-protocol copies of these messages); like 60, do not
  // reuse them.
  kQuorumRead = 20,
  kQuorumReadReply = 21,
  kQuorumWrite = 22,
  kQuorumWriteAck = 23,
  kQuorumGetTs = 24,
  kQuorumTsReply = 25,
  kQuorumTsReplyBounded = 41,
  kQuorumWriteBounded = 42,
  kQuorumReadReplyBounded = 45,
  // 60 is retired (the single-register mux envelope). Do not reuse it:
  // a stray frame in the old shape must stay an unknown tag.
  kMuxBatch = 61,
  kNodeFlush = 62,
  kNodeFlushAck = 63,
};

// The registry: each variant alternative maps to its tag here; encode
// and decode bodies live on the structs (EncodeInto / DecodeFrom).
template <typename T>
struct WireTag;
template <> struct WireTag<GetTsMsg> { static constexpr Tag value = Tag::kGetTs; };
template <> struct WireTag<TsReplyMsg> { static constexpr Tag value = Tag::kTsReply; };
template <> struct WireTag<WriteMsg> { static constexpr Tag value = Tag::kWrite; };
template <> struct WireTag<WriteReplyMsg> { static constexpr Tag value = Tag::kWriteReply; };
template <> struct WireTag<ReadMsg> { static constexpr Tag value = Tag::kRead; };
template <> struct WireTag<ReplyMsg> { static constexpr Tag value = Tag::kReply; };
template <> struct WireTag<CompleteReadMsg> { static constexpr Tag value = Tag::kCompleteRead; };
template <> struct WireTag<FlushMsg> { static constexpr Tag value = Tag::kFlush; };
template <> struct WireTag<FlushAckMsg> { static constexpr Tag value = Tag::kFlushAck; };
template <> struct WireTag<QuorumGetTsMsg> { static constexpr Tag value = Tag::kQuorumGetTs; };
template <> struct WireTag<QuorumWriteAckMsg> { static constexpr Tag value = Tag::kQuorumWriteAck; };
template <> struct WireTag<QuorumReadMsg> { static constexpr Tag value = Tag::kQuorumRead; };
template <> struct WireTag<QuorumTsReplyMsg<UnboundedTs>> { static constexpr Tag value = Tag::kQuorumTsReply; };
template <> struct WireTag<QuorumWriteMsg<UnboundedTs>> { static constexpr Tag value = Tag::kQuorumWrite; };
template <> struct WireTag<QuorumReadReplyMsg<UnboundedTs>> { static constexpr Tag value = Tag::kQuorumReadReply; };
template <> struct WireTag<QuorumTsReplyMsg<Timestamp>> { static constexpr Tag value = Tag::kQuorumTsReplyBounded; };
template <> struct WireTag<QuorumWriteMsg<Timestamp>> { static constexpr Tag value = Tag::kQuorumWriteBounded; };
template <> struct WireTag<QuorumReadReplyMsg<Timestamp>> { static constexpr Tag value = Tag::kQuorumReadReplyBounded; };
template <> struct WireTag<MuxBatchMsg> { static constexpr Tag value = Tag::kMuxBatch; };
template <> struct WireTag<NodeFlushMsg> { static constexpr Tag value = Tag::kNodeFlush; };
template <> struct WireTag<NodeFlushAckMsg> { static constexpr Tag value = Tag::kNodeFlushAck; };

// Tag-indexed decode table, one entry per possible tag byte. Built at
// static-init time by folding over the Message variant — a type absent
// from the variant cannot be decoded, a duplicate tag asserts below.
using DecodeFn = Message (*)(BufReader&);

std::array<DecodeFn, 256> BuildDecodeTable() {
  std::array<DecodeFn, 256> table{};
  auto add = [&table]<typename T>() {
    auto& slot = table[static_cast<std::size_t>(WireTag<T>::value)];
    SBFT_ASSERT(slot == nullptr);  // duplicate wire tag
    slot = [](BufReader& r) -> Message { return Message(T::DecodeFrom(r)); };
  };
  [&add]<std::size_t... I>(std::index_sequence<I...>) {
    (add.template operator()<std::variant_alternative_t<I, Message>>(), ...);
  }(std::make_index_sequence<std::variant_size_v<Message>>{});
  return table;
}

const std::array<DecodeFn, 256>& DecodeTable() {
  static const std::array<DecodeFn, 256> table = BuildDecodeTable();
  return table;
}

}  // namespace

void WireVersioned::EncodeInto(BufWriter& w) const {
  w.PutBytes(value);
  ts.Encode(w);
}
WireVersioned WireVersioned::DecodeFrom(BufReader& r) {
  WireVersioned v;
  v.value = r.GetBytesView();
  v.ts = Timestamp::Decode(r);
  return v;
}

void GetTsMsg::EncodeInto(BufWriter& w) const { w.Put<OpLabel>(op_label); }
GetTsMsg GetTsMsg::DecodeFrom(BufReader& r) {
  GetTsMsg m;
  m.op_label = r.Get<OpLabel>();
  return m;
}

void TsReplyMsg::EncodeInto(BufWriter& w) const {
  ts.Encode(w);
  w.Put<OpLabel>(op_label);
}
TsReplyMsg TsReplyMsg::DecodeFrom(BufReader& r) {
  TsReplyMsg m;
  m.ts = Timestamp::Decode(r);
  m.op_label = r.Get<OpLabel>();
  return m;
}

void WriteMsg::EncodeInto(BufWriter& w) const {
  w.PutBytes(value);
  ts.Encode(w);
  w.Put<OpLabel>(op_label);
}
WriteMsg WriteMsg::DecodeFrom(BufReader& r) {
  WriteMsg m;
  m.value = r.GetBytesView();
  m.ts = Timestamp::Decode(r);
  m.op_label = r.Get<OpLabel>();
  return m;
}

void WriteReplyMsg::EncodeInto(BufWriter& w) const {
  w.Put<std::uint8_t>(ack ? 1 : 0);
  w.Put<OpLabel>(op_label);
}
WriteReplyMsg WriteReplyMsg::DecodeFrom(BufReader& r) {
  WriteReplyMsg m;
  m.ack = r.Get<std::uint8_t>() != 0;
  m.op_label = r.Get<OpLabel>();
  return m;
}

void ReadMsg::EncodeInto(BufWriter& w) const { w.Put<OpLabel>(label); }
ReadMsg ReadMsg::DecodeFrom(BufReader& r) {
  ReadMsg m;
  m.label = r.Get<OpLabel>();
  return m;
}

void ReplyMsg::EncodeInto(BufWriter& w) const {
  w.PutBytes(value);
  ts.Encode(w);
  w.PutVector(old_vals,
              [](BufWriter& bw, const WireVersioned& v) { v.EncodeInto(bw); });
  w.Put<OpLabel>(label);
}

namespace {

// REPLY's old_vals run: a u32 count, then that many (value, timestamp)
// entries. Both REPLY decoders frame the run here, so DecodeReplyLazy
// accepts exactly the frames DecodeMessage does: an entry is decoded
// into `out` or, when `out` is null, skipped by Timestamp::Skip, which
// applies Decode's checks. A garbage count needs no cap: neither the
// reserve nor the walk can outgrow what the frame's bytes can hold.
std::uint32_t ReadHistory(BufReader& r, std::vector<WireVersioned>* out) {
  const auto count = r.Get<std::uint32_t>();
  if (out != nullptr) {
    out->reserve(std::min<std::size_t>(
        count, r.remaining() / WireVersioned::kMinWireBytes));
  }
  for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
    if (out != nullptr) {
      out->push_back(WireVersioned::DecodeFrom(r));
    } else {
      (void)r.GetBytesView();
      Timestamp::Skip(r);
    }
  }
  return count;
}

}  // namespace

ReplyMsg ReplyMsg::DecodeFrom(BufReader& r) {
  ReplyMsg m;
  m.value = r.GetBytesView();
  m.ts = Timestamp::Decode(r);
  (void)ReadHistory(r, &m.old_vals);
  m.label = r.Get<OpLabel>();
  return m;
}

void CompleteReadMsg::EncodeInto(BufWriter& w) const { w.Put<OpLabel>(label); }
CompleteReadMsg CompleteReadMsg::DecodeFrom(BufReader& r) {
  CompleteReadMsg m;
  m.label = r.Get<OpLabel>();
  return m;
}

void FlushMsg::EncodeInto(BufWriter& w) const {
  w.Put<OpLabel>(label);
  w.Put<OpScope>(scope);
}
FlushMsg FlushMsg::DecodeFrom(BufReader& r) {
  FlushMsg m;
  m.label = r.Get<OpLabel>();
  m.scope = r.Get<OpScope>();
  return m;
}

void FlushAckMsg::EncodeInto(BufWriter& w) const {
  w.Put<OpLabel>(label);
  w.Put<OpScope>(scope);
}
FlushAckMsg FlushAckMsg::DecodeFrom(BufReader& r) {
  FlushAckMsg m;
  m.label = r.Get<OpLabel>();
  m.scope = r.Get<OpScope>();
  return m;
}

void QuorumGetTsMsg::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
}
QuorumGetTsMsg QuorumGetTsMsg::DecodeFrom(BufReader& r) {
  QuorumGetTsMsg m;
  m.rid = r.Get<std::uint64_t>();
  return m;
}

template <typename Ts>
void QuorumTsReplyMsg<Ts>::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
  ts.Encode(w);
}
template <typename Ts>
QuorumTsReplyMsg<Ts> QuorumTsReplyMsg<Ts>::DecodeFrom(BufReader& r) {
  QuorumTsReplyMsg m;
  m.rid = r.Get<std::uint64_t>();
  m.ts = Ts::Decode(r);
  return m;
}

template <typename Ts>
void QuorumWriteMsg<Ts>::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
  ts.Encode(w);
  w.PutBytes(value);
}
template <typename Ts>
QuorumWriteMsg<Ts> QuorumWriteMsg<Ts>::DecodeFrom(BufReader& r) {
  QuorumWriteMsg m;
  m.rid = r.Get<std::uint64_t>();
  m.ts = Ts::Decode(r);
  m.value = r.GetBytesView();
  return m;
}

void QuorumWriteAckMsg::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
}
QuorumWriteAckMsg QuorumWriteAckMsg::DecodeFrom(BufReader& r) {
  QuorumWriteAckMsg m;
  m.rid = r.Get<std::uint64_t>();
  return m;
}

void QuorumReadMsg::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
}
QuorumReadMsg QuorumReadMsg::DecodeFrom(BufReader& r) {
  QuorumReadMsg m;
  m.rid = r.Get<std::uint64_t>();
  return m;
}

template <typename Ts>
void QuorumReadReplyMsg<Ts>::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(rid);
  ts.Encode(w);
  w.PutBytes(value);
}
template <typename Ts>
QuorumReadReplyMsg<Ts> QuorumReadReplyMsg<Ts>::DecodeFrom(BufReader& r) {
  QuorumReadReplyMsg m;
  m.rid = r.Get<std::uint64_t>();
  m.ts = Ts::Decode(r);
  m.value = r.GetBytesView();
  return m;
}

template struct QuorumTsReplyMsg<UnboundedTs>;
template struct QuorumTsReplyMsg<Timestamp>;
template struct QuorumWriteMsg<UnboundedTs>;
template struct QuorumWriteMsg<Timestamp>;
template struct QuorumReadReplyMsg<UnboundedTs>;
template struct QuorumReadReplyMsg<Timestamp>;

void MuxItem::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(register_id);
  w.PutBytes(inner);
}
MuxItem MuxItem::DecodeFrom(BufReader& r) {
  MuxItem m;
  m.register_id = r.Get<std::uint64_t>();
  m.inner = r.GetBytesView();
  return m;
}

void MuxBatchMsg::EncodeInto(BufWriter& w) const {
  w.PutVector(items,
              [](BufWriter& bw, const MuxItem& item) { item.EncodeInto(bw); });
}
MuxBatchMsg MuxBatchMsg::DecodeFrom(BufReader& r) {
  MuxBatchMsg m;
  m.items = r.GetVector<MuxItem>(MuxItem::kMinWireBytes, MuxItem::DecodeFrom);
  return m;
}

void FlushItem::EncodeInto(BufWriter& w) const {
  w.Put<std::uint64_t>(register_id);
  w.Put<OpLabel>(label);
  w.Put<OpScope>(scope);
}
FlushItem FlushItem::DecodeFrom(BufReader& r) {
  FlushItem m;
  m.register_id = r.Get<std::uint64_t>();
  m.label = r.Get<OpLabel>();
  m.scope = r.Get<OpScope>();
  return m;
}

void NodeFlushMsg::EncodeInto(BufWriter& w) const {
  w.PutVector(items,
              [](BufWriter& bw, const FlushItem& item) { item.EncodeInto(bw); });
}
NodeFlushMsg NodeFlushMsg::DecodeFrom(BufReader& r) {
  NodeFlushMsg m;
  m.items =
      r.GetVector<FlushItem>(FlushItem::kWireBytes, FlushItem::DecodeFrom);
  return m;
}

void NodeFlushAckMsg::EncodeInto(BufWriter& w) const {
  w.PutVector(items,
              [](BufWriter& bw, const FlushItem& item) { item.EncodeInto(bw); });
}
NodeFlushAckMsg NodeFlushAckMsg::DecodeFrom(BufReader& r) {
  NodeFlushAckMsg m;
  m.items =
      r.GetVector<FlushItem>(FlushItem::kWireBytes, FlushItem::DecodeFrom);
  return m;
}

void EncodeMessageInto(const Message& message, BufWriter& w) {
  std::visit(
      [&w](const auto& m) {
        w.Put<Tag>(WireTag<std::decay_t<decltype(m)>>::value);
        m.EncodeInto(w);
      },
      message);
}

Bytes EncodeMessage(const Message& message) {
  BufWriter w(FramePool().Acquire());
  EncodeMessageInto(message, w);
  return w.Take();
}

void MuxBatchBuilder::Add(std::uint64_t register_id, BytesView inner) {
  if (count_ == 0) {
    // Lazy frame start: the builder only holds a pooled buffer while a
    // frame is in flight, and Take() leaves it ready for the next one.
    writer_ = BufWriter(FramePool().Acquire());
    writer_.Put<Tag>(Tag::kMuxBatch);
    writer_.Put<std::uint32_t>(0);  // count, patched in Take()
  }
  writer_.Put<std::uint64_t>(register_id);
  writer_.PutBytes(inner);
  ++count_;
}

Bytes MuxBatchBuilder::Take() {
  SBFT_ASSERT(count_ > 0);
  writer_.PatchAt<std::uint32_t>(sizeof(Tag), count_);
  count_ = 0;
  return writer_.Take();
}

Result<Message> DecodeMessage(BytesView frame) {
  BufReader r(frame);
  const auto tag = r.Get<std::uint8_t>();
  if (r.failed()) return Result<Message>::Err("empty frame");

  const DecodeFn decode = DecodeTable()[tag];
  if (decode == nullptr) return Result<Message>::Err("unknown message tag");
  Message out = decode(r);
  if (!r.AtEndOk()) {
    return Result<Message>::Err("malformed frame for tag " +
                                std::to_string(static_cast<int>(tag)));
  }
  return Result<Message>::Ok(std::move(out));
}

std::optional<LazyReplyMsg> DecodeReplyLazy(BytesView frame) {
  BufReader r(frame);
  if (r.Get<std::uint8_t>() != static_cast<std::uint8_t>(Tag::kReply) ||
      r.failed()) {
    return std::nullopt;
  }
  LazyReplyMsg m;
  m.value = r.GetBytesView();
  m.ts = Timestamp::Decode(r);
  const std::size_t region_begin = r.pos();
  m.old_count = ReadHistory(r, nullptr);
  m.old_vals_raw = frame.subspan(region_begin, r.pos() - region_begin);
  m.label = r.Get<OpLabel>();
  if (!r.AtEndOk()) return std::nullopt;
  return m;
}

std::string MessageTypeName(const Message& message) {
  struct Namer {
    std::string operator()(const GetTsMsg&) { return "GET_TS"; }
    std::string operator()(const TsReplyMsg&) { return "TS_REPLY"; }
    std::string operator()(const WriteMsg&) { return "WRITE"; }
    std::string operator()(const WriteReplyMsg& m) {
      return m.ack ? "ACK" : "NACK";
    }
    std::string operator()(const ReadMsg&) { return "READ"; }
    std::string operator()(const ReplyMsg&) { return "REPLY"; }
    std::string operator()(const CompleteReadMsg&) { return "COMPLETE_READ"; }
    std::string operator()(const FlushMsg&) { return "FLUSH"; }
    std::string operator()(const FlushAckMsg&) { return "FLUSH_ACK"; }
    std::string operator()(const QuorumGetTsMsg&) { return "QUORUM_GET_TS"; }
    std::string operator()(const QuorumWriteAckMsg&) {
      return "QUORUM_WRITE_ACK";
    }
    std::string operator()(const QuorumReadMsg&) { return "QUORUM_READ"; }
    std::string operator()(const QuorumTsReplyMsg<UnboundedTs>&) {
      return "QUORUM_TS_REPLY";
    }
    std::string operator()(const QuorumWriteMsg<UnboundedTs>&) {
      return "QUORUM_WRITE";
    }
    std::string operator()(const QuorumReadReplyMsg<UnboundedTs>&) {
      return "QUORUM_READ_REPLY";
    }
    std::string operator()(const QuorumTsReplyMsg<Timestamp>&) {
      return "QUORUM_TS_REPLY_BOUNDED";
    }
    std::string operator()(const QuorumWriteMsg<Timestamp>&) {
      return "QUORUM_WRITE_BOUNDED";
    }
    std::string operator()(const QuorumReadReplyMsg<Timestamp>&) {
      return "QUORUM_READ_REPLY_BOUNDED";
    }
    std::string operator()(const MuxBatchMsg&) { return "MUX_BATCH"; }
    std::string operator()(const NodeFlushMsg&) { return "NODE_FLUSH"; }
    std::string operator()(const NodeFlushAckMsg&) { return "NODE_FLUSH_ACK"; }
  };
  return std::visit(Namer{}, message);
}

}  // namespace sbft
