#include "baselines/quorum_register.hpp"

#include <algorithm>
#include <limits>

namespace sbft {
namespace {

/// The (skip+1)-th largest collected timestamp, advanced by one under
/// the writer's id. The increment saturates: it documents that even an
/// overflow guard cannot save the protocol once corruption plants a
/// near-maximal seq.
UnboundedTs Advance(std::vector<UnboundedTs> collected, std::size_t skip,
                    ClientId writer) {
  std::sort(collected.begin(), collected.end(),
            [](const UnboundedTs& a, const UnboundedTs& b) { return b < a; });
  const UnboundedTs base = collected[skip];
  return UnboundedTs{base.seq == std::numeric_limits<std::uint64_t>::max()
                         ? base.seq
                         : base.seq + 1,
                     writer};
}

}  // namespace

UnboundedTs UnboundedDomain::Corrupt(Rng& rng) const {
  UnboundedTs ts;
  ts.seq = rng();
  if (rng.NextBool(0.5)) ts.seq |= 0xF000000000000000ull;
  ts.writer_id = static_cast<std::uint32_t>(rng());
  return ts;
}

Timestamp LabelDomain::Corrupt(Rng& rng) const {
  return Timestamp{RandomValidLabel(rng, labels_.params()),
                   static_cast<ClientId>(rng.NextBelow(8))};
}

// --- Rules -----------------------------------------------------------------

UnboundedTs AbdRules::WriteTs(std::vector<UnboundedTs> collected,
                              ClientId writer) const {
  return Advance(std::move(collected), 0, writer);
}

QuorumReadOutcome<UnboundedTs> AbdRules::Decide(
    const ReadReplies<UnboundedTs>& replies) const {
  QuorumReadOutcome<UnboundedTs> outcome;
  outcome.ok = true;
  for (std::size_t i = 0; i < replies.present.size(); ++i) {
    if (replies.present[i] && replies.ts[i] >= outcome.ts) {
      outcome.ts = replies.ts[i];
      outcome.value = replies.values[i];
    }
  }
  return outcome;
}

std::size_t BuRules::Quorum(std::size_t n) const {
  SBFT_ASSERT(n >= 3 * static_cast<std::size_t>(f) + 1);
  return n - f;
}

UnboundedTs BuRules::WriteTs(std::vector<UnboundedTs> collected,
                             ClientId writer) const {
  // Mask Byzantine inflation: up to f of the reported timestamps may be
  // arbitrarily large lies, so advance from the (f+1)-th largest
  // (standard in BFT storage; cf. non-skipping timestamps). This defends
  // against lying servers but NOT against transient corruption of f+1
  // or more correct servers: the unbounded timestamp then saturates and
  // the register never recovers, which is the failure mode experiment
  // E5 contrasts with bounded labels.
  return Advance(std::move(collected), f, writer);
}

QuorumReadOutcome<UnboundedTs> BuRules::Decide(
    const ReadReplies<UnboundedTs>& replies) const {
  // Certify: identical (ts, value) reported by >= f+1 servers; take the
  // maximal certified pair.
  QuorumReadOutcome<UnboundedTs> outcome;
  const std::size_t n = replies.present.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!replies.present[i]) continue;
    std::size_t witnesses = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (replies.present[j] && replies.ts[j] == replies.ts[i] &&
          replies.values[j] == replies.values[i]) {
        ++witnesses;
      }
    }
    if (witnesses >= f + 1 && (!outcome.ok || outcome.ts < replies.ts[i])) {
      outcome.ok = true;
      outcome.ts = replies.ts[i];
      outcome.value = replies.values[i];
    }
  }
  return outcome;
}

Timestamp Tm1rRules::WriteTs(std::vector<Timestamp> collected,
                             ClientId writer) const {
  std::vector<Label> inputs;
  inputs.reserve(collected.size());
  for (Timestamp& ts : collected) inputs.push_back(std::move(ts.label));
  return Timestamp{labels().Next(inputs), writer};
}

QuorumReadOutcome<Timestamp> Tm1rRules::Decide(
    const ReadReplies<Timestamp>& replies) const {
  // The TM_1R decision: a deterministic function of the timestamp
  // multiset — plurality vote, ties broken by canonical representation
  // order. (Theorem 1 shows *no* such function can be correct with
  // n <= 5f; this one is as good as any.)
  QuorumReadOutcome<Timestamp> outcome;
  std::size_t best_count = 0;
  std::optional<Timestamp> best_ts;
  const std::size_t n = replies.present.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!replies.present[i]) continue;
    std::size_t count = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (replies.present[j] && replies.ts[j] == replies.ts[i]) ++count;
    }
    const bool better =
        count > best_count ||
        (count == best_count &&
         (!best_ts || best_ts->CompareRepr(replies.ts[i]) < 0));
    if (better) {
      best_count = count;
      best_ts = replies.ts[i];
      outcome.value = replies.values[i];
      outcome.ts = replies.ts[i];
    }
  }
  outcome.ok = best_ts.has_value();
  return outcome;
}

// --- Server ----------------------------------------------------------------

template <typename Domain>
void QuorumServer<Domain>::OnFrame(NodeId from, BytesView frame,
                                   IEndpoint& endpoint) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  const Message& message = decoded.value();

  if (const auto* m = std::get_if<QuorumGetTsMsg>(&message)) {
    endpoint.Send(from,
                  EncodeMessage(Message(QuorumTsReplyMsg<Ts>{m->rid, ts_})));
  }
  if (const auto* m = std::get_if<QuorumWriteMsg<Ts>>(&message)) {
    // One-shot adopt-if-newer, as in the Theorem 1 protocol class.
    Ts incoming = domain_.Sanitize(m->ts);
    if (domain_.Precedes(ts_, incoming)) {
      ts_ = std::move(incoming);
      value_ = ToBytes(m->value);  // copy the frame-borrowed view into state
    }
    endpoint.Send(from, EncodeMessage(Message(QuorumWriteAckMsg{m->rid})));
  }
  if (const auto* m = std::get_if<QuorumReadMsg>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(
                            QuorumReadReplyMsg<Ts>{m->rid, ts_, value_})));
  }
}

template <typename Domain>
void QuorumServer<Domain>::CorruptState(Rng& rng) {
  ts_ = domain_.Corrupt(rng);
  value_ = RandomBytes(rng, 1 + rng.NextBelow(8));
}

// --- Client ----------------------------------------------------------------

template <typename Rules>
QuorumClient<Rules>::QuorumClient(std::vector<NodeId> servers, Rules rules,
                                  ClientId client_id)
    : servers_(std::move(servers)),
      rules_(std::move(rules)),
      quorum_(rules_.Quorum(servers_.size())),
      client_id_(client_id),
      last_write_ts_(rules_.Initial(client_id)) {
  const std::size_t n = servers_.size();
  collected_ts_.resize(n);
  collected_bits_.assign(n, 0);
  write_acks_.assign(n, 0);
  read_.present.assign(n, 0);
  read_.ts.resize(n);
  read_.values.resize(n);
}

template <typename Rules>
void QuorumClient<Rules>::OnStart(IEndpoint& endpoint) {
  endpoint_ = &endpoint;
}

template <typename Rules>
std::optional<std::size_t> QuorumClient<Rules>::ServerIndex(
    NodeId node) const {
  auto it = std::find(servers_.begin(), servers_.end(), node);
  if (it == servers_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - servers_.begin());
}

template <typename Rules>
void QuorumClient<Rules>::StartWrite(Value value,
                                     std::function<void(bool)> callback) {
  SBFT_ASSERT(endpoint_ != nullptr && idle());
  write_value_ = std::move(value);
  write_callback_ = std::move(callback);
  std::fill(collected_bits_.begin(), collected_bits_.end(), std::uint8_t{0});
  collected_count_ = 0;
  phase_ = Phase::kGetTs;
  ++rid_;
  endpoint_->Broadcast(servers_, EncodeMessage(Message(QuorumGetTsMsg{rid_})));
}

template <typename Rules>
void QuorumClient<Rules>::StartRead(
    std::function<void(const ReadOutcome&)> callback) {
  SBFT_ASSERT(endpoint_ != nullptr && idle());
  read_callback_ = std::move(callback);
  std::fill(read_.present.begin(), read_.present.end(), std::uint8_t{0});
  read_count_ = 0;
  phase_ = Phase::kRead;
  ++rid_;
  endpoint_->Broadcast(servers_, EncodeMessage(Message(QuorumReadMsg{rid_})));
}

template <typename Rules>
void QuorumClient<Rules>::OnFrame(NodeId from, BytesView frame, IEndpoint&) {
  const auto index = ServerIndex(from);
  if (!index) return;
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  const Message& message = decoded.value();

  if (const auto* m = std::get_if<QuorumTsReplyMsg<Ts>>(&message)) {
    if (phase_ != Phase::kGetTs || m->rid != rid_) return;
    if (!collected_bits_[*index]) {  // first reply per server wins
      collected_bits_[*index] = 1;
      collected_ts_[*index] = rules_.Sanitize(m->ts);
      ++collected_count_;
    }
    if (collected_count_ < quorum_) return;
    std::vector<Ts> collected;
    collected.reserve(collected_count_);
    for (std::size_t i = 0; i < collected_bits_.size(); ++i) {
      if (collected_bits_[i]) collected.push_back(collected_ts_[i]);
    }
    last_write_ts_ = rules_.WriteTs(std::move(collected), client_id_);
    phase_ = Phase::kWrite;
    std::fill(write_acks_.begin(), write_acks_.end(), std::uint8_t{0});
    write_ack_count_ = 0;
    // write_value_ is a stable member, so the view inside the WRITE is
    // valid for the duration of the encode.
    endpoint_->Broadcast(
        servers_, EncodeMessage(Message(QuorumWriteMsg<Ts>{
                      rid_, last_write_ts_, write_value_})));
  }
  if (const auto* m = std::get_if<QuorumWriteAckMsg>(&message)) {
    if (phase_ != Phase::kWrite || m->rid != rid_) return;
    if (!write_acks_[*index]) {
      write_acks_[*index] = 1;
      ++write_ack_count_;
    }
    if (write_ack_count_ < quorum_) return;
    phase_ = Phase::kIdle;
    if (write_callback_) {
      auto callback = std::move(write_callback_);
      write_callback_ = nullptr;
      callback(true);
    }
  }
  if (const auto* m = std::get_if<QuorumReadReplyMsg<Ts>>(&message)) {
    if (phase_ != Phase::kRead || m->rid != rid_) return;
    if (!read_.present[*index]) {
      read_.present[*index] = 1;
      read_.ts[*index] = rules_.Sanitize(m->ts);
      // In-place assign reuses the slot's Bytes capacity across reads.
      read_.values[*index].assign(m->value.begin(), m->value.end());
      ++read_count_;
    }
    if (read_count_ < quorum_) return;
    const ReadOutcome outcome = rules_.Decide(read_);
    phase_ = Phase::kIdle;
    if (read_callback_) {
      auto callback = std::move(read_callback_);
      read_callback_ = nullptr;
      callback(outcome);
    }
  }
}

template <typename Rules>
void QuorumClient<Rules>::CorruptState(Rng& rng) {
  rid_ = rng();  // unbounded id: corruption may collide with stale replies
  if (phase_ == Phase::kIdle) return;
  phase_ = Phase::kIdle;
  if (write_callback_) {
    auto callback = std::move(write_callback_);
    write_callback_ = nullptr;
    callback(false);
  }
  if (read_callback_) {
    auto callback = std::move(read_callback_);
    read_callback_ = nullptr;
    callback(ReadOutcome{});
  }
}

template class QuorumServer<UnboundedDomain>;
template class QuorumServer<LabelDomain>;
template class QuorumClient<AbdRules>;
template class QuorumClient<BuRules>;
template class QuorumClient<Tm1rRules>;

// --- Adversaries -----------------------------------------------------------

void BuByzantineServer::OnFrame(NodeId from, BytesView frame,
                                IEndpoint& endpoint) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  const Message& message = decoded.value();
  // One draw per decoded frame, whatever it holds.
  const UnboundedTs huge{std::numeric_limits<std::uint64_t>::max(),
                         static_cast<std::uint32_t>(rng_())};
  if (const auto* m = std::get_if<QuorumGetTsMsg>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(
                            QuorumTsReplyMsg<UnboundedTs>{m->rid, huge})));
  }
  if (const auto* m = std::get_if<QuorumWriteMsg<UnboundedTs>>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(QuorumWriteAckMsg{m->rid})));
  }
  if (const auto* m = std::get_if<QuorumReadMsg>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(QuorumReadReplyMsg<UnboundedTs>{
                            m->rid, huge, RandomBytes(rng_, 4)})));
  }
}

void NqScriptedServer::OnFrame(NodeId from, BytesView frame,
                               IEndpoint& endpoint) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  const Message& message = decoded.value();

  if (const auto* m = std::get_if<QuorumGetTsMsg>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(QuorumTsReplyMsg<Timestamp>{
                            m->rid, ts_for_get_ts})));
  }
  if (const auto* m = std::get_if<QuorumWriteMsg<Timestamp>>(&message)) {
    endpoint.Send(from, EncodeMessage(Message(QuorumWriteAckMsg{m->rid})));
  }
  if (const auto* m = std::get_if<QuorumReadMsg>(&message)) {
    if (read_script.empty()) return;  // silent when out of script
    auto [ts, value] = read_script.front();
    if (read_script.size() > 1) read_script.pop_front();
    endpoint.Send(from, EncodeMessage(Message(
                            QuorumReadReplyMsg<Timestamp>{m->rid, ts, value})));
  }
}

}  // namespace sbft
