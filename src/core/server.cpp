#include "core/server.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/buffer_pool.hpp"

namespace sbft {
namespace {

// A reply prefix's head starts right after its one-byte REPLY tag.
constexpr std::size_t kHeadAt = sizeof(std::uint8_t);

// Walk one encoded (value, timestamp) pair of reply_prefix_, the head or
// a history entry. The prefix is the server's own encoding, so the walk
// never fails, whatever garbage its labels hold (CorruptState): Encode
// writes any in-memory label in a form Decode accepts.
void SkipVersioned(BufReader& r) {
  (void)r.GetBytesView();
  Timestamp::Skip(r);
}

// Offset of the history count in a reply prefix: past the tag and the
// head.
std::size_t HistoryOffset(BytesView prefix) {
  BufReader r(prefix);
  (void)r.Skip(kHeadAt);
  SkipVersioned(r);
  SBFT_ASSERT(!r.failed());
  return r.pos();
}

// Replace buf[begin, end) with `bytes`, moving the tail once: within
// capacity when the caller reserved.
void Splice(Bytes& buf, std::size_t begin, std::size_t end, BytesView bytes) {
  const auto replaced = static_cast<std::ptrdiff_t>(end - begin);
  const auto common = std::min(replaced, std::ssize(bytes));
  const auto at = buf.begin() + static_cast<std::ptrdiff_t>(begin);
  std::copy_n(bytes.begin(), common, at);
  if (std::ssize(bytes) > replaced) {
    buf.insert(at + replaced, bytes.begin() + common, bytes.end());
  } else {
    buf.erase(at + common, at + replaced);
  }
}

}  // namespace

RegisterServer::RegisterServer(ProtocolConfig config, std::size_t server_index)
    : config_(config), labels_(config.k), index_(server_index) {
  config_.Validate();
  current_.ts = Timestamp{labels_.Initial(), 0};
}

void RegisterServer::OnFrame(NodeId from, BytesView frame,
                             IEndpoint& endpoint) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;  // garbage frame: drop (transient corruption)
  const Message& message = decoded.value();

  if (const auto* m = std::get_if<GetTsMsg>(&message)) {
    HandleGetTs(from, *m, endpoint);
  }
  if (const auto* m = std::get_if<WriteMsg>(&message)) {
    HandleWrite(from, *m, endpoint);
  }
  if (const auto* m = std::get_if<ReadMsg>(&message)) {
    HandleRead(from, *m, endpoint);
  }
  if (const auto* m = std::get_if<CompleteReadMsg>(&message)) {
    HandleCompleteRead(from, *m, endpoint);
  }
  if (const auto* m = std::get_if<FlushMsg>(&message)) {
    HandleFlush(from, *m, endpoint);
  }
  // Messages of other protocols (baselines) are ignored.
}

void RegisterServer::HandleGetTs(NodeId from, const GetTsMsg& msg,
                                 IEndpoint& endpoint) {
  // Sanitize before exporting: a corrupted local label must not force
  // the writer to cope with structural garbage.
  TsReplyMsg reply;
  reply.ts = SanitizedTs();
  reply.op_label = msg.op_label;
  endpoint.Send(from, EncodeMessage(Message(std::move(reply))));
}

void RegisterServer::HandleWrite(NodeId from, const WriteMsg& msg,
                                 IEndpoint& endpoint) {
  // ACK iff the incoming timestamp follows the local one (Figure 1
  // server side).
  Timestamp incoming{labels_.Sanitize(msg.ts.label), msg.ts.writer_id};
  Timestamp local{labels_.Sanitize(current_.ts.label), current_.ts.writer_id};

  WriteReplyMsg reply;
  reply.ack = Precedes(local, incoming, labels_.params());
  reply.op_label = msg.op_label;
  endpoint.Send(from, EncodeMessage(Message(reply)));

  // Adoption. The paper says "in any case, any server updates its local
  // copy" — unconditional adoption is what makes a corrupted server
  // recover. Literal last-arrival-wins, however, leaves the population
  // permanently split after two concurrent writes with incomparable
  // labels (different reads then certify different branches — a
  // Consistency violation; DESIGN.md gap #4). We therefore adopt
  // *convergently*: reject only when the incoming timestamp is strictly
  // older under the deterministic pairwise order (label precedence,
  // identifiers for equal or incomparable labels — Lemma 8's ordering).
  // Every server then settles on the same member of a concurrent pair
  // regardless of arrival order. Stabilization is preserved: a write
  // whose next() folded in this server's (sanitized) label always
  // dominates it and is adopted, so a garbage-stuck server is unstuck
  // by the next write that samples it.
  // Both labels are sanitized above, so both are valid here.
  bool adopt = true;
  if (Precedes(incoming.label, local.label, labels_.params())) {
    adopt = false;  // strictly older by label
  } else if (Precedes(local.label, incoming.label, labels_.params())) {
    adopt = true;
  } else {
    // Equal or incomparable labels: identifiers decide; ties adopt
    // (identical timestamp, e.g. a retransmission).
    adopt = incoming.writer_id >= local.writer_id;
  }
  // The history exists only in wire form, so the write is spliced into
  // the encoded reply, and everything it encodes is already sanitized:
  // the new head under `incoming`, and a register's first write builds
  // its (still empty) history under `local`.
  if (reply_prefix_.empty()) BuildReplyPrefix(local);
  const WireVersioned written{msg.value, incoming};
  if (adopt) {
    // The displaced value enters history under its raw timestamp. When
    // that is valid, the old head already holds the entry's exact bytes.
    const WireVersioned displaced = AsWire(current_);
    const bool head_is_entry = local.label == current_.ts.label;
    SpliceWrite(&written, head_is_entry ? nullptr : &displaced);
    // The write's value is a view into the frame; copy it as it enters
    // server state.
    current_.value.assign(msg.value.begin(), msg.value.end());
    current_.ts = incoming;
  } else {
    // Keep the rejected value witnessed in history: a read racing the
    // losing branch of a concurrent pair may still need to certify it
    // through the union graph.
    SpliceWrite(nullptr, &written);
  }

  // Forward the new value to every reader currently registered
  // (Figure 1: "the server forwards the new written value to all the
  // concurrent readers stored in running_read_i"). Each reader's reply
  // differs only in its trailing op label, so all of them copy the
  // same prefix.
  if (!config_.forward_to_running_reads) return;
  for (const auto& [reader, label] : running_reads_) {
    endpoint.Send(reader, ReplyFrameFor(label));
  }
}

void RegisterServer::HandleRead(NodeId from, const ReadMsg& msg,
                                IEndpoint& endpoint) {
  // Register the reader (bounded table, evicting oldest: the paper
  // bounds it by the client population; garbage entries from transient
  // faults get evicted by churn).
  const auto entry = std::make_pair(from, msg.label);
  if (std::find(running_reads_.begin(), running_reads_.end(), entry) ==
      running_reads_.end()) {
    running_reads_.push_back(entry);
    while (running_reads_.size() > config_.max_running_reads) {
      running_reads_.pop_front();
    }
  }

  if (reply_prefix_.empty()) BuildReplyPrefix(SanitizedTs());
  endpoint.Send(from, ReplyFrameFor(msg.label));
}

Bytes RegisterServer::ReplyFrameFor(OpLabel label) {
  BufWriter w(FramePool().Acquire());
  w.Reserve(reply_prefix_.size() + sizeof(OpLabel));
  w.PutRaw(reply_prefix_);
  w.Put<OpLabel>(label);
  return w.Take();
}

void RegisterServer::BuildReplyPrefix(
    const Timestamp& sanitized_ts, const std::vector<WireVersioned>& history) {
  // Encoding through the regular codec with a placeholder label and
  // truncating it keeps the prefix byte-identical to a ReplyMsg encode
  // (the op label is the final, fixed-width field of ReplyMsg).
  ReplyMsg reply;
  reply.value = current_.value;
  reply.ts = sanitized_ts;
  reply.old_vals = history;
  Bytes frame = EncodeMessage(Message(std::move(reply)));
  SBFT_ASSERT(frame.size() >= sizeof(OpLabel));
  // Copy out of the pooled encode buffer rather than keep it: the
  // prefix lives as long as the register, and a pooled buffer carries
  // the capacity of the largest frame it ever held (one per register
  // adds up across a mux server's whole register table).
  const auto prefix_end =
      frame.end() - static_cast<std::ptrdiff_t>(sizeof(OpLabel));
  reply_prefix_.assign(frame.begin(), prefix_end);
  FramePool().Release(std::move(frame));

  entry_sizes_.clear();
  BufReader r(BytesView(reply_prefix_).subspan(HistoryOffset(reply_prefix_)));
  const auto count = r.Get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t entry_at = r.pos();
    SkipVersioned(r);
    entry_sizes_.push_back(static_cast<std::uint32_t>(r.pos() - entry_at));
  }
  SBFT_ASSERT(r.AtEndOk());
}

void RegisterServer::SpliceWrite(const WireVersioned* head,
                                 const WireVersioned* entry) {
  SBFT_ASSERT(head != nullptr || entry != nullptr);
  // Only the head is sanitized. History entries go out unsanitized, in
  // the codec's canonical form (antistings sorted and deduplicated);
  // clients sanitize a history label when they materialize it.
  const std::size_t count_at = HistoryOffset(reply_prefix_);
  // Drop the entries the new one pushes out of the window first, so the
  // splice below never needs room for more than a full window.
  const std::size_t window = config_.history_window;
  const std::size_t kept = std::min(entry_sizes_.size(), window - 1);
  entry_sizes_.resize(kept);
  std::size_t kept_end = count_at + sizeof(std::uint32_t);
  for (const std::uint32_t size : entry_sizes_) kept_end += size;
  reply_prefix_.resize(kept_end);

  BufWriter w(FramePool().Acquire());
  if (head != nullptr) head->EncodeInto(w);
  w.Put<std::uint32_t>(static_cast<std::uint32_t>(kept + 1));
  const std::size_t entry_at = w.data().size();
  if (entry != nullptr) {
    entry->EncodeInto(w);
  } else {
    w.PutRaw(BytesView(reply_prefix_).subspan(kHeadAt, count_at - kHeadAt));
  }
  const std::size_t entry_size = w.data().size() - entry_at;
  const auto indexed = static_cast<std::uint32_t>(entry_size);
  entry_sizes_.insert(entry_sizes_.begin(), indexed);

  const std::size_t begin = head != nullptr ? kHeadAt : count_at;
  const std::size_t end = count_at + sizeof(std::uint32_t);
  const std::size_t replaced = end - begin;
  const std::size_t needed = reply_prefix_.size() - replaced + w.data().size();
  if (needed > reply_prefix_.capacity()) {
    // Grow geometrically while the window fills, but never past a full
    // window of entries this size: a full window then splices within
    // capacity, wastes none, and a register written once (set-up writes
    // every key) stays small.
    const std::size_t full = needed + (window - kept - 1) * entry_size;
    const std::size_t grown = std::max(needed, 2 * reply_prefix_.capacity());
    reply_prefix_.reserve(std::min(grown, full));
  }
  Splice(reply_prefix_, begin, end, w.data());
  FramePool().Release(w.Take());
}

std::vector<VersionedValue> RegisterServer::old_vals() const {
  std::vector<VersionedValue> history;
  if (reply_prefix_.empty()) return history;
  BufReader r(BytesView(reply_prefix_).subspan(HistoryOffset(reply_prefix_)));
  const auto entries = r.GetVector<WireVersioned>(
      WireVersioned::kMinWireBytes, WireVersioned::DecodeFrom);
  for (const WireVersioned& v : entries) history.push_back(ToOwned(v));
  SBFT_ASSERT(r.AtEndOk());
  return history;
}

void RegisterServer::SetState(VersionedValue vv) {
  current_ = std::move(vv);
  if (reply_prefix_.empty()) return;  // built on first use
  BufWriter w(FramePool().Acquire());
  WireVersioned{current_.value, SanitizedTs()}.EncodeInto(w);
  Splice(reply_prefix_, kHeadAt, HistoryOffset(reply_prefix_), w.data());
  FramePool().Release(w.Take());
}

void RegisterServer::HandleCompleteRead(NodeId from,
                                        const CompleteReadMsg& msg,
                                        IEndpoint&) {
  const auto entry = std::make_pair(from, msg.label);
  auto it = std::find(running_reads_.begin(), running_reads_.end(), entry);
  if (it != running_reads_.end()) running_reads_.erase(it);
}

void RegisterServer::HandleFlush(NodeId from, const FlushMsg& msg,
                                 IEndpoint& endpoint) {
  FlushAckMsg ack;
  ack.label = msg.label;
  ack.scope = msg.scope;
  endpoint.Send(from, EncodeMessage(Message(ack)));
}

void RegisterServer::CorruptState(Rng& rng) {
  // Arbitrary local state: garbage value, garbage (possibly invalid)
  // label, garbage history and garbage reader table.
  current_.value = RandomBytes(rng, 1 + rng.NextBelow(8));
  current_.ts = Timestamp{RandomGarbageLabel(rng, labels_.params()),
                          static_cast<ClientId>(rng())};
  const auto length = rng.NextBelow(config_.history_window + 1);
  std::vector<VersionedValue> history(length);
  for (VersionedValue& old : history) {
    old.value = RandomBytes(rng, 1 + rng.NextBelow(8));
    old.ts.label = RandomGarbageLabel(rng, labels_.params());
    old.ts.writer_id = static_cast<ClientId>(rng());
  }
  std::vector<WireVersioned> wire;
  wire.reserve(history.size());
  for (const VersionedValue& old : history) wire.push_back(AsWire(old));
  BuildReplyPrefix(SanitizedTs(), wire);
  running_reads_.clear();
  const auto readers = rng.NextBelow(4);
  for (std::uint64_t i = 0; i < readers; ++i) {
    running_reads_.emplace_back(static_cast<NodeId>(rng.NextBelow(64)),
                                static_cast<OpLabel>(rng.NextBelow(8)));
  }
}

}  // namespace sbft
