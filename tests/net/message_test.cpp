// Round-trip and garbage-hardening tests for the frame codec.
#include "net/message.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "labels/labeling_system.hpp"

namespace sbft {
namespace {

Timestamp MakeTs(Rng& rng, const LabelingSystem& system) {
  return Timestamp{RandomValidLabel(rng, system.params()),
                   static_cast<ClientId>(rng.NextBelow(100))};
}

// Decoded value-bearing messages borrow the frame, so the round-trip
// helper hands back the wire bytes together with the message; `msg` is
// only valid while the holder lives.
template <typename T>
struct Decoded {
  Bytes wire;
  T msg;
};

template <typename T>
Decoded<T> RoundTrip(const T& in) {
  Decoded<T> result;
  result.wire = EncodeMessage(Message(in));
  auto decoded = DecodeMessage(result.wire);
  EXPECT_TRUE(decoded.ok()) << (decoded.ok() ? "" : decoded.error());
  const T* out = std::get_if<T>(&decoded.value());
  EXPECT_NE(out, nullptr);
  if (out) result.msg = *out;
  return result;
}

TEST(MessageCodec, CoreMessagesRoundTrip) {
  Rng rng(51);
  LabelingSystem system(6);

  GetTsMsg get_ts{.op_label = 3};
  EXPECT_EQ(RoundTrip(get_ts).msg.op_label, 3u);

  TsReplyMsg ts_reply{MakeTs(rng, system), 7};
  auto ts_reply_out = RoundTrip(ts_reply);
  EXPECT_EQ(ts_reply_out.msg.ts, ts_reply.ts);
  EXPECT_EQ(ts_reply_out.msg.op_label, 7u);

  const Value write_val{1, 2, 3};
  WriteMsg write{write_val, MakeTs(rng, system), 9};
  auto write_out = RoundTrip(write);
  EXPECT_TRUE(SameBytes(write_out.msg.value, write.value));
  EXPECT_EQ(write_out.msg.ts, write.ts);

  WriteReplyMsg wr{.ack = true, .op_label = 2};
  EXPECT_TRUE(RoundTrip(wr).msg.ack);

  ReadMsg read{.label = 1};
  EXPECT_EQ(RoundTrip(read).msg.label, 1u);

  const Value reply_val{9, 9};
  const Value old_val1{1};
  const Value old_val2{2};
  ReplyMsg reply;
  reply.value = reply_val;
  reply.ts = MakeTs(rng, system);
  reply.old_vals = {{old_val1, MakeTs(rng, system)},
                    {old_val2, MakeTs(rng, system)}};
  reply.label = 4;
  auto reply_out = RoundTrip(reply);
  EXPECT_TRUE(SameBytes(reply_out.msg.value, reply.value));
  EXPECT_EQ(reply_out.msg.old_vals, reply.old_vals);

  CompleteReadMsg complete{.label = 2};
  EXPECT_EQ(RoundTrip(complete).msg.label, 2u);

  FlushMsg flush{.label = 5, .scope = OpScope::kWrite};
  auto flush_out = RoundTrip(flush);
  EXPECT_EQ(flush_out.msg.scope, OpScope::kWrite);

  FlushAckMsg flush_ack{.label = 5, .scope = OpScope::kRead};
  EXPECT_EQ(RoundTrip(flush_ack).msg.label, 5u);
}

TEST(MessageCodec, BaselineMessagesRoundTrip) {
  Rng rng(52);
  LabelingSystem system(4);
  UnboundedTs uts{123456789, 42};

  const Value v5{5};
  const Value v6{6};
  const Value v9{9};
  const Value v1{1};
  const Value v2{2};
  const Value v3{3};
  EXPECT_EQ(RoundTrip(QuorumReadMsg{77}).msg.rid, 77u);
  auto reply = RoundTrip(QuorumReadReplyMsg<UnboundedTs>{1, uts, v5});
  EXPECT_EQ(reply.msg.ts, uts);
  EXPECT_TRUE(SameBytes(reply.msg.value, v5));
  EXPECT_EQ(RoundTrip(QuorumWriteMsg<UnboundedTs>{2, uts, v6}).msg.ts, uts);
  EXPECT_EQ(RoundTrip(QuorumWriteAckMsg{3}).msg.rid, 3u);
  EXPECT_EQ(RoundTrip(QuorumGetTsMsg{4}).msg.rid, 4u);
  EXPECT_EQ(RoundTrip(QuorumTsReplyMsg<UnboundedTs>{5, uts}).msg.ts, uts);
  EXPECT_TRUE(SameBytes(
      RoundTrip(QuorumWriteMsg<UnboundedTs>{8, uts, v9}).msg.value, v9));
  EXPECT_EQ(RoundTrip(QuorumReadReplyMsg<UnboundedTs>{11, uts, v1}).msg.rid,
            11u);

  Timestamp ts = MakeTs(rng, system);
  EXPECT_EQ(RoundTrip(QuorumTsReplyMsg<Timestamp>{13, ts}).msg.ts, ts);
  EXPECT_EQ(RoundTrip(QuorumWriteMsg<Timestamp>{14, ts, v2}).msg.ts, ts);
  EXPECT_TRUE(SameBytes(
      RoundTrip(QuorumReadReplyMsg<Timestamp>{17, ts, v3}).msg.value, v3));
}

TEST(MessageCodec, SixteenServerReplySizes) {
  // An n = 16 READ reply as a server sends it: the head and a full
  // 16-entry history of the load driver's short values k123#<i>, under
  // labels from a solo writer's next() chain. Its 17 labels are most of
  // the frame: as deltas between sorted antistings each takes about 20
  // bytes, where u32 fields (8 + 4k = 72 bytes) would make the reply
  // 1,478 bytes and the TS_REPLY 81.
  LabelingSystem system(16);
  std::vector<Value> values;
  std::vector<Timestamp> stamps;
  Label label = system.Initial();
  for (int i = 0; i <= 16; ++i) {
    label = system.Next(std::vector<Label>{label});
    const std::string text = "k123#" + std::to_string(i);
    values.emplace_back(text.begin(), text.end());
    stamps.push_back(Timestamp{label, static_cast<ClientId>(16 + i % 4)});
  }
  ReplyMsg reply;
  reply.value = values[16];
  reply.ts = stamps[16];
  for (int i = 15; i >= 0; --i) {
    reply.old_vals.push_back(WireVersioned{values[i], stamps[i]});
  }
  reply.label = 3;
  const Bytes wire = EncodeMessage(Message(reply));
  EXPECT_LE(wire.size(), 620u);
  EXPECT_EQ(wire.size(), 577u);
  const Bytes ts_wire = EncodeMessage(Message(TsReplyMsg{stamps[16], 3}));
  EXPECT_EQ(ts_wire.size(), 28u);
  EXPECT_EQ(RoundTrip(reply).msg.old_vals, reply.old_vals);
}

TEST(MessageCodec, MuxNestingIsPossibleButBounded) {
  // Nested envelopes decode fine (the mux never nests, but garbage
  // might look nested); depth is naturally bounded by frame size.
  const Bytes raw{0xFF};
  MuxBatchMsg innermost;
  innermost.items = {MuxItem{1, raw}};
  const Bytes innermost_wire = EncodeMessage(Message(innermost));
  MuxBatchMsg outer;
  outer.items = {MuxItem{2, innermost_wire}};
  auto decoded = DecodeMessage(EncodeMessage(Message(outer)));
  ASSERT_TRUE(decoded.ok());
}

TEST(MessageCodec, MuxBatchRoundTrip) {
  const Bytes inner_a = EncodeMessage(Message(ReadMsg{.label = 3}));
  const Bytes inner_b = EncodeMessage(Message(CompleteReadMsg{.label = 4}));
  MuxBatchMsg batch;
  batch.items = {MuxItem{7, inner_a}, MuxItem{9, inner_b}, MuxItem{7, inner_b}};
  const Bytes wire = EncodeMessage(Message(batch));
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok());
  const auto* out = std::get_if<MuxBatchMsg>(&decoded.value());
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->items.size(), 3u);
  EXPECT_EQ(out->items[0].register_id, 7u);
  EXPECT_EQ(out->items[1].register_id, 9u);
  auto inner = DecodeMessage(out->items[1].inner);
  ASSERT_TRUE(inner.ok());
  EXPECT_NE(std::get_if<CompleteReadMsg>(&inner.value()), nullptr);
}

TEST(MessageCodec, MuxBatchGarbageCountRejected) {
  // A batch frame whose count prefix promises more items than the frame
  // holds must fail cleanly, not over-read.
  const Bytes inner = EncodeMessage(Message(ReadMsg{.label = 1}));
  MuxBatchBuilder builder;
  builder.Add(1, inner);
  Bytes wire = builder.Take();
  wire[1] = 0xFF;  // count prefix low byte: claims 255 items
  EXPECT_FALSE(DecodeMessage(wire).ok());

  // A 64 KiB batch whose count reads 0x000FFFFF: far more 12-byte items
  // than the frame can hold.
  MuxBatchBuilder big;
  const std::size_t item_bytes = MuxItem::kMinWireBytes + inner.size();
  for (std::size_t i = 0; i < (64u << 10) / item_bytes; ++i) {
    big.Add(1, inner);
  }
  Bytes garbage = big.Take();
  garbage[1] = 0xFF;
  garbage[2] = 0xFF;
  garbage[3] = 0x0F;
  garbage[4] = 0x00;
  EXPECT_FALSE(DecodeMessage(garbage).ok());
}

TEST(MessageCodec, NodeFlushGarbageCountRejected) {
  // Same whole-frame rejection discipline as MuxBatch: a count prefix
  // promising more flush items than the frame holds fails cleanly.
  NodeFlushMsg flush;
  flush.items = {FlushItem{1, 2, OpScope::kRead}};
  Bytes wire = EncodeMessage(Message(flush));
  wire[1] = 0xFF;  // count prefix low byte: claims 255 items
  EXPECT_FALSE(DecodeMessage(wire).ok());

  // A 64 KiB round whose count reads 0x000FFFFF.
  flush.items.assign((64u << 10) / FlushItem::kWireBytes,
                     FlushItem{1, 2, OpScope::kRead});
  Bytes garbage = EncodeMessage(Message(flush));
  garbage[1] = 0xFF;
  garbage[2] = 0xFF;
  garbage[3] = 0x0F;
  garbage[4] = 0x00;
  EXPECT_FALSE(DecodeMessage(garbage).ok());
}

TEST(MessageCodec, NodeFlushAckTruncatedItemRejected) {
  // A malformed trailing element rejects the WHOLE frame — no partial
  // item distribution on the ack path.
  NodeFlushAckMsg ack;
  ack.items = {FlushItem{1, 2, OpScope::kRead},
               FlushItem{3, 4, OpScope::kWrite}};
  Bytes wire = EncodeMessage(Message(ack));
  wire.pop_back();  // truncate the last item's scope byte
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(MessageCodec, EmptyFrameRejected) {
  EXPECT_FALSE(DecodeMessage(Bytes{}).ok());
}

TEST(MessageCodec, UnknownTagRejected) {
  Bytes frame{0xEE, 1, 2, 3};
  EXPECT_FALSE(DecodeMessage(frame).ok());
  // Tags 30-35, 40, 43 and 44 carried per-protocol copies of the
  // baseline quorum messages. A well-formed frame under each, in the
  // shape it had (rid; rid + ts; rid + ts + value), is now unknown.
  const Value value{7, 7};
  for (const int tag : {30, 31, 32, 33, 34, 35, 40, 43, 44}) {
    BufWriter retired;
    retired.Put<std::uint8_t>(static_cast<std::uint8_t>(tag));
    retired.Put<std::uint64_t>(9);
    if (tag == 31 || tag == 32 || tag == 35) {
      UnboundedTs{5, 6}.Encode(retired);
    }
    if (tag == 32 || tag == 35) retired.PutBytes(value);
    EXPECT_FALSE(DecodeMessage(retired.Take()).ok()) << "tag " << tag;
  }
  // Tag 60 carried the retired single-register mux envelope
  // (register id, length-prefixed inner frame); that shape is now an
  // unknown tag like any other.
  BufWriter retired;
  retired.Put<std::uint8_t>(60);
  retired.Put<std::uint64_t>(7);
  retired.PutBytes(EncodeMessage(Message(ReadMsg{.label = 1})));
  EXPECT_FALSE(DecodeMessage(retired.Take()).ok());
}

TEST(MessageCodec, TruncatedFrameRejected) {
  Bytes wire = EncodeMessage(Message(WriteMsg{Value{1, 2, 3},
                                              Timestamp{}, 1}));
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    Bytes truncated(wire.begin(),
                    wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeMessage(truncated).ok()) << "cut=" << cut;
  }
}

TEST(MessageCodec, TrailingBytesRejected) {
  Bytes wire = EncodeMessage(Message(ReadMsg{1}));
  wire.push_back(0xAB);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

// One populated instance of every wire variant, so hardening tests can
// exercise every decoder rather than a lucky subset. Value payloads are
// views, so the backing bytes live in function-local statics that
// outlive every returned Message.
std::vector<Message> AllVariantSamples(Rng& rng,
                                       const LabelingSystem& system) {
  static const Value kVal123{1, 2, 3};
  static const Value kVal45{4, 5};
  static const Value kVal2{2};
  static const Value kVal3{3};
  static const Value kVal5{5};
  static const Value kVal6{6};
  static const Bytes kBatchInnerA =
      EncodeMessage(Message(FlushMsg{4, OpScope::kWrite}));
  static const Bytes kBatchInnerB =
      EncodeMessage(Message(GetTsMsg{6}));
  const Timestamp ts = MakeTs(rng, system);
  const UnboundedTs uts{987654321, 17};
  ReplyMsg reply;
  reply.value = kVal45;
  reply.ts = MakeTs(rng, system);
  reply.old_vals = {{kVal6, MakeTs(rng, system)}};
  reply.label = 11;
  MuxBatchMsg mux_batch;
  mux_batch.items = {MuxItem{1, kBatchInnerA}, MuxItem{2, kBatchInnerB}};
  NodeFlushMsg node_flush;
  node_flush.items = {FlushItem{1, 5, OpScope::kRead},
                      FlushItem{2, 6, OpScope::kWrite}};
  NodeFlushAckMsg node_flush_ack;
  node_flush_ack.items = node_flush.items;
  return {
      GetTsMsg{3},
      TsReplyMsg{ts, 7},
      WriteMsg{kVal123, ts, 9},
      WriteReplyMsg{true, 2},
      ReadMsg{1},
      reply,
      CompleteReadMsg{2},
      FlushMsg{5, OpScope::kWrite},
      FlushAckMsg{5, OpScope::kRead},
      QuorumGetTsMsg{4},
      QuorumWriteAckMsg{3},
      QuorumReadMsg{77},
      QuorumTsReplyMsg<UnboundedTs>{5, uts},
      QuorumWriteMsg<UnboundedTs>{2, uts, kVal6},
      QuorumReadReplyMsg<UnboundedTs>{1, uts, kVal5},
      QuorumTsReplyMsg<Timestamp>{13, ts},
      QuorumWriteMsg<Timestamp>{14, ts, kVal2},
      QuorumReadReplyMsg<Timestamp>{17, ts, kVal3},
      mux_batch,
      node_flush,
      node_flush_ack,
  };
}

TEST(MessageCodec, SampleSetCoversEveryVariant) {
  Rng rng(54);
  LabelingSystem system(6);
  EXPECT_EQ(AllVariantSamples(rng, system).size(),
            std::variant_size_v<Message>);
}

TEST(MessageCodec, EveryVariantTruncationRejected) {
  Rng rng(54);
  LabelingSystem system(6);
  for (const Message& sample : AllVariantSamples(rng, system)) {
    const Bytes wire = EncodeMessage(sample);
    ASSERT_TRUE(DecodeMessage(wire).ok()) << MessageTypeName(sample);
    // Every strict prefix must produce a clean decode error: length
    // prefixes precede their data and decoders demand exact consumption,
    // so no truncation can re-validate.
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Bytes truncated(wire.begin(),
                      wire.begin() + static_cast<std::ptrdiff_t>(cut));
      auto decoded = DecodeMessage(truncated);
      EXPECT_FALSE(decoded.ok())
          << MessageTypeName(sample) << " cut=" << cut;
    }
  }
}

TEST(MessageCodec, EveryVariantBitFlipsDecodeOrErrorCleanly) {
  // Flip each byte of each valid frame: the decoder must either reject
  // or return a structurally valid message, never misbehave. (ASan/UBSan
  // in CI give this test its teeth.)
  Rng rng(55);
  LabelingSystem system(6);
  for (const Message& sample : AllVariantSamples(rng, system)) {
    Bytes wire = EncodeMessage(sample);
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const std::uint8_t saved = wire[i];
      wire[i] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
      auto decoded = DecodeMessage(wire);
      if (decoded.ok()) {
        EXPECT_FALSE(MessageTypeName(decoded.value()).empty());
      }
      wire[i] = saved;
    }
  }
}

TEST(MessageCodec, TypedGarbagePayloadsNeverCrash) {
  // Valid type byte, random payload: the adversarial shape garbage
  // injection actually produces (the type byte survives, fields don't).
  Rng rng(56);
  LabelingSystem system(6);
  const auto samples = AllVariantSamples(rng, system);
  for (const Message& sample : samples) {
    const std::uint8_t type_byte = EncodeMessage(sample)[0];
    for (int i = 0; i < 64; ++i) {
      Bytes frame{type_byte};
      const Bytes payload = RandomBytes(rng, rng.NextBelow(120));
      frame.insert(frame.end(), payload.begin(), payload.end());
      (void)DecodeMessage(frame);  // must not crash; outcome is free
    }
  }
}

TEST(MessageCodec, FuzzGarbageFramesNeverCrash) {
  Rng rng(53);
  int decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    Bytes garbage = RandomBytes(rng, rng.NextBelow(80));
    auto result = DecodeMessage(garbage);
    if (result.ok()) ++decoded_ok;  // structurally valid garbage is fine
  }
  // Overwhelming majority of random frames must be rejected outright.
  EXPECT_LT(decoded_ok, 500);
}

TEST(MessageCodec, TypeNamesAreStable) {
  EXPECT_EQ(MessageTypeName(Message(GetTsMsg{})), "GET_TS");
  EXPECT_EQ(MessageTypeName(Message(WriteReplyMsg{.ack = true})), "ACK");
  EXPECT_EQ(MessageTypeName(Message(WriteReplyMsg{.ack = false})), "NACK");
  EXPECT_EQ(MessageTypeName(Message(FlushMsg{})), "FLUSH");
  EXPECT_EQ(MessageTypeName(Message(QuorumReadReplyMsg<Timestamp>{})),
            "QUORUM_READ_REPLY_BOUNDED");
}

}  // namespace
}  // namespace sbft
