#include "core/server.hpp"

#include <algorithm>
#include <utility>

#include "common/buffer_pool.hpp"

namespace sbft {

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
  reply.ts = Timestamp{labels_.Sanitize(current_.ts.label),
                       current_.ts.writer_id};
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
  bool adopt = true;
  if (labels_.IsValid(incoming.label) && labels_.IsValid(local.label)) {
    if (Precedes(incoming.label, local.label, labels_.params())) {
      adopt = false;  // strictly older by label
    } else if (Precedes(local.label, incoming.label, labels_.params())) {
      adopt = true;
    } else {
      // Equal or incomparable labels: identifiers decide; ties adopt
      // (identical timestamp, e.g. a retransmission).
      adopt = incoming.writer_id >= local.writer_id;
    }
  }
  // The write's value is a view into the frame; copy it as it enters
  // server state.
  if (adopt) {
    old_vals_.push_front(std::move(current_));
    current_ = VersionedValue{ToBytes(msg.value), incoming};
  } else {
    // Keep the rejected value witnessed in history: a read racing the
    // losing branch of a concurrent pair may still need to certify it
    // through the union graph.
    old_vals_.push_front(VersionedValue{ToBytes(msg.value), incoming});
  }
  while (old_vals_.size() > config_.history_window) old_vals_.pop_back();
  reply_prefix_valid_ = false;  // state changed on every branch above

  // Forward the new value to every reader currently registered
  // (Figure 1: "the server forwards the new written value to all the
  // concurrent readers stored in running_read_i"). Each reader's reply
  // differs only in its trailing op label, so all of them splice the
  // shared cached prefix.
  if (!config_.forward_to_running_reads) return;
  if (running_reads_.empty()) return;
  RebuildReplyPrefix();
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

  if (!reply_prefix_valid_) RebuildReplyPrefix();
  endpoint.Send(from, ReplyFrameFor(msg.label));
}

Bytes RegisterServer::ReplyFrameFor(OpLabel label) {
  BufWriter w(FramePool().Acquire());
  w.Reserve(reply_prefix_.size() + sizeof(OpLabel));
  w.PutRaw(reply_prefix_);
  w.Put<OpLabel>(label);
  return w.Take();
}

void RegisterServer::RebuildReplyPrefix() {
  // Sanitize before exporting, as HandleGetTs does: a corrupted local
  // label must not hand readers structural garbage. Encoding through
  // the regular codec with a placeholder label and truncating it keeps
  // the cached bytes byte-identical to the unbatched encode (the op
  // label is the final, fixed-width field of ReplyMsg).
  ReplyMsg reply;
  reply.value = current_.value;
  reply.ts = Timestamp{labels_.Sanitize(current_.ts.label),
                       current_.ts.writer_id};
  reply.old_vals.reserve(old_vals_.size());
  for (const VersionedValue& v : old_vals_) {
    reply.old_vals.push_back(AsWire(v));
  }
  reply.label = 0;
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
  reply_prefix_valid_ = true;
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
  old_vals_.clear();
  const auto history = rng.NextBelow(config_.history_window + 1);
  for (std::uint64_t i = 0; i < history; ++i) {
    old_vals_.push_back(
        VersionedValue{RandomBytes(rng, 1 + rng.NextBelow(8)),
                       Timestamp{RandomGarbageLabel(rng, labels_.params()),
                                 static_cast<ClientId>(rng())}});
  }
  running_reads_.clear();
  const auto readers = rng.NextBelow(4);
  for (std::uint64_t i = 0; i < readers; ++i) {
    running_reads_.emplace_back(static_cast<NodeId>(rng.NextBelow(64)),
                                static_cast<OpLabel>(rng.NextBelow(8)));
  }
  reply_prefix_valid_ = false;
}

}  // namespace sbft
