// Codec round-trip property test: every wire type in the Message
// variant must survive encode -> decode -> re-encode with the re-encoded
// frame byte-identical to the first. This pins the table-driven codec to
// the wire format — a field added to a struct but missed in its
// EncodeInto/DecodeFrom pair, or an ordering change between them, fails
// here before it can corrupt a cross-version trace.
#include "net/message.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "labels/bounded_label.hpp"
#include "labels/labeling_system.hpp"

namespace sbft {
namespace {

// One randomized instance of every variant alternative. Value-bearing
// messages hold views, so each sample's bytes live in an arena owned by
// the set; views target the Bytes' heap buffers, which stay put even if
// the arena vector reallocates.
class SampleSet {
 public:
  explicit SampleSet(std::uint64_t seed) : rng_(seed), system_(6) {
    arena_.reserve(64);

    // Core protocol (Figures 1-3).
    Add(GetTsMsg{Op()});
    Add(TsReplyMsg{Ts(), Op()});
    Add(WriteMsg{Val(), Ts(), Op()});
    Add(WriteReplyMsg{rng_.NextBelow(2) == 0, Op()});
    Add(ReadMsg{Op()});
    ReplyMsg reply;
    reply.value = Val();
    reply.ts = Ts();
    const std::size_t history = rng_.NextBelow(4);
    reply.old_vals.reserve(history);
    for (std::size_t i = 0; i < history; ++i) {
      reply.old_vals.push_back(WireVersioned{Val(), Ts()});
    }
    reply.label = Op();
    Add(reply);
    Add(CompleteReadMsg{Op()});
    Add(FlushMsg{Op(), Scope()});
    Add(FlushAckMsg{Op(), Scope()});

    // Baseline quorum registers: the shared messages and both
    // timestamp kinds of the rest.
    Add(QuorumGetTsMsg{Rid()});
    Add(QuorumWriteAckMsg{Rid()});
    Add(QuorumReadMsg{Rid()});
    Add(QuorumTsReplyMsg<UnboundedTs>{Rid(), Uts()});
    Add(QuorumWriteMsg<UnboundedTs>{Rid(), Uts(), Val()});
    Add(QuorumReadReplyMsg<UnboundedTs>{Rid(), Uts(), Val()});
    Add(QuorumTsReplyMsg<Timestamp>{Rid(), Ts()});
    Add(QuorumWriteMsg<Timestamp>{Rid(), Ts(), Val()});
    Add(QuorumReadReplyMsg<Timestamp>{Rid(), Ts(), Val()});

    // Batched mux envelope: a random number of sub-frames (possibly
    // zero — an empty batch is legal on the wire) over genuine inner
    // encodes of different phases.
    MuxBatchMsg batch;
    const std::size_t items = rng_.NextBelow(5);
    batch.items.reserve(items);
    for (std::size_t i = 0; i < items; ++i) {
      const Bytes inner =
          rng_.NextBelow(2) == 0
              ? EncodeMessage(Message(FlushMsg{Op(), Scope()}))
              : EncodeMessage(Message(WriteMsg{Val(), Ts(), Op()}));
      batch.items.push_back(MuxItem{Rid(), Own(inner)});
    }
    Add(std::move(batch));

    // Node-level shared FLUSH round and its echo: a random number of
    // per-register flush items (possibly zero).
    NodeFlushMsg node_flush;
    const std::size_t flushes = rng_.NextBelow(5);
    node_flush.items.reserve(flushes);
    for (std::size_t i = 0; i < flushes; ++i) {
      node_flush.items.push_back(FlushItem{Rid(), Op(), Scope()});
    }
    NodeFlushAckMsg node_flush_ack;
    node_flush_ack.items = node_flush.items;
    Add(std::move(node_flush));
    Add(std::move(node_flush_ack));
  }

  const std::vector<Message>& messages() const { return messages_; }

 private:
  template <typename T>
  void Add(T msg) {
    messages_.push_back(Message(std::move(msg)));
  }

  BytesView Own(Bytes bytes) {
    arena_.push_back(std::move(bytes));
    return arena_.back();
  }
  // Sometimes empty: zero-length values are legal on the wire.
  BytesView Val() { return Own(RandomBytes(rng_, rng_.NextBelow(65))); }
  OpLabel Op() { return static_cast<OpLabel>(rng_()); }
  std::uint64_t Rid() { return rng_(); }
  OpScope Scope() {
    return rng_.NextBelow(2) == 0 ? OpScope::kRead : OpScope::kWrite;
  }
  // The codec carries timestamps verbatim — garbage labels (transient
  // faults) must round-trip just like valid ones.
  Timestamp Ts() {
    Label label = rng_.NextBelow(2) == 0
                      ? RandomValidLabel(rng_, system_.params())
                      : RandomGarbageLabel(rng_, system_.params());
    return Timestamp{std::move(label),
                     static_cast<ClientId>(rng_.NextBelow(1000))};
  }
  UnboundedTs Uts() {
    return UnboundedTs{rng_(), static_cast<std::uint32_t>(rng_())};
  }

  Rng rng_;
  LabelingSystem system_;
  std::vector<Bytes> arena_;
  std::vector<Message> messages_;
};

TEST(CodecRoundTrip, SampleSetCoversEveryVariantAlternative) {
  SampleSet samples(1);
  constexpr std::size_t kAlternatives = std::variant_size_v<Message>;
  ASSERT_EQ(samples.messages().size(), kAlternatives);
  std::vector<bool> seen(kAlternatives, false);
  for (const Message& message : samples.messages()) {
    EXPECT_FALSE(seen[message.index()])
        << "duplicate sample for " << MessageTypeName(message);
    seen[message.index()] = true;
  }
}

TEST(CodecRoundTrip, EncodeDecodeReencodeByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SampleSet samples(seed);
    for (const Message& message : samples.messages()) {
      const Bytes wire = EncodeMessage(message);
      auto decoded = DecodeMessage(wire);
      ASSERT_TRUE(decoded.ok())
          << MessageTypeName(message) << " seed " << seed << ": "
          << decoded.error();
      EXPECT_EQ(decoded.value().index(), message.index())
          << MessageTypeName(message) << " seed " << seed;
      EXPECT_EQ(MessageTypeName(decoded.value()), MessageTypeName(message));
      // The decoded message's views borrow `wire`, still in scope here.
      const Bytes rewire = EncodeMessage(decoded.value());
      EXPECT_EQ(rewire, wire)
          << MessageTypeName(message) << " seed " << seed
          << ": re-encode diverged";
    }
  }
}

TEST(CodecRoundTrip, RepeatedEncodesThroughPoolAreIdentical) {
  // Encoding draws buffers from the thread-local frame pool; reuse of a
  // previously released (larger) buffer must not leak stale bytes.
  SampleSet samples(7);
  for (const Message& message : samples.messages()) {
    const Bytes first = EncodeMessage(message);
    const Bytes second = EncodeMessage(message);
    EXPECT_EQ(first, second) << MessageTypeName(message);
  }
}

TEST(CodecRoundTrip, MuxBatchBuilderMatchesGenericEncode) {
  // The incremental builder (count prefix patched at Take) must produce
  // exactly the frame the generic encode of the equivalent MuxBatchMsg
  // does, for any item sequence.
  Rng rng(13);
  MuxBatchBuilder builder;  // reused across iterations, like in the mux
  for (int i = 0; i < 50; ++i) {
    const std::size_t items = 1 + rng.NextBelow(8);
    std::vector<Bytes> arena;
    arena.reserve(items);
    MuxBatchMsg batch;
    for (std::size_t item = 0; item < items; ++item) {
      arena.push_back(RandomBytes(rng, rng.NextBelow(100)));
      const std::uint64_t id = rng();
      builder.Add(id, arena.back());
      batch.items.push_back(MuxItem{id, arena.back()});
    }
    EXPECT_EQ(builder.count(), items);
    const Bytes fast = builder.Take();
    EXPECT_TRUE(builder.empty());
    const Bytes generic = EncodeMessage(Message(std::move(batch)));
    EXPECT_EQ(fast, generic) << "iteration " << i;
  }
}

// --- Label codec rejections ------------------------------------------
//
// A label is [u16 sting][varint count][count positive delta varints].
// Each malformed form below must fail the whole frame wherever the
// label sits: in a WRITE, a TS_REPLY, a REPLY's head and a REPLY's
// history, the last of which the lazy REPLY decoder only skips.

Bytes LabelBytes(const Label& label) {
  BufWriter w;
  label.Encode(w);
  return w.Take();
}

// `frame` with the last occurrence of `label`'s encoding replaced by
// `replacement`; with `end_here`, the frame ends after the replacement.
Bytes SpliceLabel(const Bytes& frame, const Label& label,
                  const Bytes& replacement, bool end_here) {
  const Bytes encoded = LabelBytes(label);
  const auto at = std::find_end(frame.begin(), frame.end(), encoded.begin(),
                                encoded.end());
  EXPECT_NE(at, frame.end());
  Bytes out(frame.begin(), at);
  out.insert(out.end(), replacement.begin(), replacement.end());
  if (!end_here) {
    out.insert(out.end(), at + std::ssize(encoded), frame.end());
  }
  return out;
}

struct MalformedLabel {
  const char* name;
  Bytes bytes;    // sting, count, deltas
  bool end_here;  // the frame ends inside the label
};

std::vector<MalformedLabel> MalformedLabels() {
  return {
      // Count 2, deltas 5 and 0: a repeated antisting.
      {"zero delta", {0x07, 0x00, 0x02, 0x05, 0x00}, false},
      // Deltas 65,536 (antisting 65,535) and 1 (65,536).
      {"past 65535", {0x07, 0x00, 0x02, 0x80, 0x80, 0x04, 0x01}, false},
      // A single delta of 65,537 (antisting 65,536).
      {"first past 65535", {0x07, 0x00, 0x01, 0x81, 0x80, 0x04}, false},
      // Count 65,535 with far fewer bytes left in the frame.
      {"count overrun", {0x07, 0x00, 0xFF, 0xFF, 0x03, 0x01}, false},
      // A delta whose continuation bit runs off the end of the frame.
      {"truncated varint", {0x07, 0x00, 0x01, 0x81}, true},
      // A count whose varint continues past five bytes.
      {"overlong varint",
       {0x07, 0x00, 0x81, 0x80, 0x80, 0x80, 0x80, 0x00, 0x01},
       false},
      // A delta past 32 bits in five bytes.
      {"varint past 32 bits", {0x07, 0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F},
       false},
  };
}

TEST(CodecRoundTrip, MalformedLabelsRejectWholeFrame) {
  Rng rng(24);
  LabelingSystem system(16);
  const Label target = RandomValidLabel(rng, system.params());
  const Label other = system.Next(std::vector<Label>{target});
  const Value value{'k', '1', '2', '3', '#', '7'};
  const Timestamp ts{target, 3};
  ReplyMsg head_reply;
  head_reply.value = value;
  head_reply.ts = ts;
  head_reply.old_vals = {WireVersioned{value, Timestamp{other, 2}}};
  head_reply.label = 5;
  ReplyMsg history_reply = head_reply;
  history_reply.ts = Timestamp{other, 2};
  history_reply.old_vals = {WireVersioned{value, Timestamp{other, 2}},
                            WireVersioned{value, ts}};
  const std::vector<Message> carriers = {
      Message(WriteMsg{value, ts, 9}), Message(TsReplyMsg{ts, 7}),
      Message(head_reply), Message(history_reply)};

  for (const Message& carrier : carriers) {
    const Bytes frame = EncodeMessage(carrier);
    ASSERT_TRUE(DecodeMessage(frame).ok()) << MessageTypeName(carrier);
    const bool is_reply = std::holds_alternative<ReplyMsg>(carrier);
    if (is_reply) {
      ASSERT_TRUE(DecodeReplyLazy(frame).has_value());
    }
    for (const MalformedLabel& bad : MalformedLabels()) {
      const Bytes broken = SpliceLabel(frame, target, bad.bytes, bad.end_here);
      EXPECT_FALSE(DecodeMessage(broken).ok())
          << MessageTypeName(carrier) << ": " << bad.name;
      if (is_reply) {
        EXPECT_FALSE(DecodeReplyLazy(broken).has_value())
            << MessageTypeName(carrier) << " (lazy): " << bad.name;
      }
    }
    // The splice itself is sound: the label's own bytes decode again.
    EXPECT_TRUE(
        DecodeMessage(SpliceLabel(frame, target, LabelBytes(target), false))
            .ok());
  }
}

TEST(CodecRoundTrip, LazyReplyRejectsExactlyWhatFullDecodeRejects) {
  // The lazy decoder skips history labels that the full decoder
  // materializes; both must draw the same line between good and bad
  // frames under truncation, bit flips and label splices.
  Rng rng(25);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SampleSet samples(seed);
    const Message& reply = samples.messages()[5];
    ASSERT_TRUE(std::holds_alternative<ReplyMsg>(reply));
    Bytes wire = EncodeMessage(reply);
    const auto agree = [](const Bytes& frame, const std::string& what) {
      // A flipped tag byte may turn the frame into another message,
      // which only the full decoder accepts.
      const auto full = DecodeMessage(frame);
      const bool full_reply =
          full.ok() && std::holds_alternative<ReplyMsg>(full.value());
      EXPECT_EQ(full_reply, DecodeReplyLazy(frame).has_value()) << what;
    };
    agree(wire, "intact");
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      agree(Bytes(wire.begin(), wire.begin() + std::ssize(wire) -
                                    static_cast<std::ptrdiff_t>(cut) - 1),
            "cut " + std::to_string(cut));
    }
    for (std::size_t i = 0; i < wire.size(); ++i) {
      const std::uint8_t saved = wire[i];
      for (int flip = 0; flip < 4; ++flip) {
        wire[i] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
        agree(wire, "seed " + std::to_string(seed) + " flip at " +
                        std::to_string(i));
        wire[i] = saved;
      }
    }
  }
}

}  // namespace
}  // namespace sbft
