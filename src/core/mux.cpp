#include "core/mux.hpp"

#include <algorithm>

#include "common/buffer_pool.hpp"
#include "common/hash.hpp"

namespace sbft {
namespace {

// Server-side endpoint adaptor for batch dispatch: outgoing inner
// frames accumulate in the collector keyed by (destination, register)
// instead of leaving immediately, so one physical frame per link carries
// the replies of every sub-op in the incoming batch.
class CollectEndpoint final : public IEndpoint {
 public:
  CollectEndpoint(IEndpoint& outer, MuxBatchCollector& collector,
                  RegisterId id)
      : outer_(&outer), collector_(&collector), id_(id) {}

  void Send(NodeId dst, Bytes frame) override {
    collector_->Add(dst, id_, frame);
    FramePool().Release(std::move(frame));
  }
  void Broadcast(std::span<const NodeId> dsts, Bytes frame) override {
    collector_->AddBroadcast(dsts, id_, frame);
    FramePool().Release(std::move(frame));
  }
  void SetTimer(VirtualTime delay, int timer_id) override {
    outer_->SetTimer(delay, timer_id);
  }
  [[nodiscard]] VirtualTime Now() const override { return outer_->Now(); }
  [[nodiscard]] NodeId self() const override { return outer_->self(); }
  Rng& rng() override { return outer_->rng(); }

 private:
  IEndpoint* outer_;
  MuxBatchCollector* collector_;
  RegisterId id_;
};

void TouchLru(
    std::list<RegisterId>& lru,
    std::unordered_map<RegisterId, std::list<RegisterId>::iterator>& pos,
    RegisterId id) {
  // The per-register phases of one protocol round arrive back-to-back
  // (batch dispatch interleaves registers, but each register's frames
  // cluster), so the id is often already at the front.
  if (!lru.empty() && lru.front() == id) return;
  if (auto it = pos.find(id); it != pos.end()) {
    lru.splice(lru.begin(), lru, it->second);  // O(1); iterator stays valid
  } else {
    lru.push_front(id);
    pos.emplace(id, lru.begin());
  }
}

/// A mux table's register ids in ascending order. Each table's LRU list
/// holds exactly its keys, so walking this instead of the hash table
/// keeps bucket order out of whatever the walk feeds.
std::vector<RegisterId> AscendingIds(const std::list<RegisterId>& lru) {
  std::vector<RegisterId> ids(lru.begin(), lru.end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The mux client's one timer: the batch window's max-delay bound.
/// No inner automaton uses timers, so the id only has to be stable.
constexpr int kMuxBatchTimerId = 7001;

}  // namespace

RegisterId RegisterIdOf(std::string_view key) { return Fnv1a(key); }

// --- MuxBatchCollector ---------------------------------------------------

void MuxBatchCollector::Add(NodeId dst, RegisterId id, BytesView inner) {
  MuxBatchBuilder& builder = builders_[dst];
  if (builder.empty()) ++pending_frames_;
  builder.Add(id, inner);
}

void MuxBatchCollector::AddBroadcast(std::span<const NodeId> dsts,
                                     RegisterId id, BytesView inner) {
  for (const NodeId dst : dsts) Add(dst, id, inner);
}

void MuxBatchCollector::Flush(IEndpoint& out) {
  if (pending_frames_ == 0) return;
  for (auto& [dst, builder] : builders_) {
    if (builder.empty()) continue;
    out.Send(dst, builder.Take());
  }
  pending_frames_ = 0;
}

// --- MuxServer -----------------------------------------------------------

MuxServer::MuxServer(ProtocolConfig config, std::size_t server_index,
                     std::size_t max_registers, ServerFactory factory)
    : config_(config),
      index_(server_index),
      max_registers_(max_registers),
      factory_(std::move(factory)) {
  SBFT_ASSERT(max_registers_ >= 1);
  registers_.reserve(max_registers_);
  lru_pos_.reserve(max_registers_);
  if (!factory_) {
    factory_ = [this](RegisterId) {
      return std::make_unique<RegisterServer>(config_, index_);
    };
  }
}

RegisterServer* MuxServer::Find(RegisterId id) {
  auto it = registers_.find(id);
  return it == registers_.end() ? nullptr : it->second.get();
}

RegisterServer& MuxServer::GetOrCreate(RegisterId id) {
  auto it = registers_.find(id);
  if (it == registers_.end()) {
    if (registers_.size() >= max_registers_ && !lru_.empty()) {
      // Evict the coldest register. It re-enters later in its initial
      // state, which the protocol treats like a transient fault.
      const RegisterId cold = lru_.back();
      registers_.erase(cold);
      lru_.pop_back();
      lru_pos_.erase(cold);
    }
    it = registers_.emplace(id, factory_(id)).first;
  }
  TouchLru(lru_, lru_pos_, id);
  return *it->second;
}

void MuxServer::OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  // Held non-const so the FLUSH echo can move its item vector.
  Message message = std::move(decoded).value();
  if (auto* flush = std::get_if<NodeFlushMsg>(&message)) {
    // Node-level FLUSH: echo the whole item vector in one ack frame.
    // The honest per-register handler (RegisterServer::HandleFlush) is
    // a pure echo, so one node-level echo is semantically identical
    // for every register in the window — and skips the per-register
    // dispatch, LRU touch, and frame encode entirely, which is where
    // the amortization's CPU win on the server side comes from. By
    // FIFO, this ack leaving after the probe proves that everything
    // sent to us earlier on this channel — for ANY register — has been
    // processed, which is exactly what the inner label discipline
    // needs from a flush ack.
    NodeFlushAckMsg ack;
    ack.items = std::move(flush->items);
    if (flush_ack_mutator_) flush_ack_mutator_(ack.items);
    ++node_flushes_acked_;
    endpoint.Send(from, EncodeMessage(Message(ack)));
    return;
  }
  const auto* batch = std::get_if<MuxBatchMsg>(&message);
  if (batch == nullptr) return;  // bare frames are not for a mux server
  // Apply the whole vector of register sub-ops; replies collected while
  // dispatching leave as one batch frame per destination, so the reply
  // side of the round is as coalesced as the request side.
  for (const MuxItem& item : batch->items) {
    CollectEndpoint collect(endpoint, collector_, item.register_id);
    GetOrCreate(item.register_id).OnFrame(from, item.inner, collect);
  }
  // Inside a runtime batch the flush waits for OnBatchEnd, merging the
  // replies of every frame drained in this wakeup.
  if (batch_depth_ == 0) collector_.Flush(endpoint);
}

void MuxServer::OnBatchStart(IEndpoint&) { ++batch_depth_; }

void MuxServer::OnBatchEnd(IEndpoint& endpoint) {
  SBFT_ASSERT(batch_depth_ > 0);
  if (--batch_depth_ == 0) collector_.Flush(endpoint);
}

void MuxServer::CorruptState(Rng& rng) {
  // One base draw, then a per-register fork keyed by the register id:
  // two replicas corrupted with the same seed produce the SAME garbage
  // for the same register no matter which other registers each table
  // happens to hold. Coordinated-corruption scenarios rely on this —
  // garbage that agrees across servers is witnessed at >= 2f+1 and so
  // ANSWERS reads (exercising the violation window) instead of
  // aborting them.
  const std::uint64_t base = rng();
  for (const RegisterId id : AscendingIds(lru_)) {
    Rng fork(base ^ (id * 0x9E3779B97F4A7C15ull));
    registers_.at(id)->CorruptState(fork);
  }
}

// --- MuxClient -----------------------------------------------------------

// Persistent per-register endpoint: routes outgoing frames back through
// the owning MuxClient, which coalesces them into the round's batch
// frames. Inner clients cache this at OnStart.
class MuxClient::RouteEndpoint final : public IEndpoint {
 public:
  RouteEndpoint(MuxClient& owner, RegisterId id) : owner_(&owner), id_(id) {}

  void Send(NodeId dst, Bytes frame) override {
    owner_->RouteSend(id_, dst, std::move(frame));
  }
  void Broadcast(std::span<const NodeId> dsts, Bytes frame) override {
    owner_->RouteBroadcast(id_, dsts, std::move(frame));
  }
  void SetTimer(VirtualTime delay, int timer_id) override {
    owner_->endpoint_->SetTimer(delay, timer_id);
  }
  [[nodiscard]] VirtualTime Now() const override {
    return owner_->endpoint_->Now();
  }
  [[nodiscard]] NodeId self() const override {
    return owner_->endpoint_->self();
  }
  Rng& rng() override { return owner_->endpoint_->rng(); }

 private:
  MuxClient* owner_;
  RegisterId id_;
};

// Per-register shared-flush seam: the inner client's FLUSH rounds route
// back through the owning MuxClient, which batches them into node-level
// windows. The provider lives in the same Entry as the client, so
// lifetimes match exactly (like RouteEndpoint).
class MuxClient::RouteFlushProvider final : public FlushProvider {
 public:
  RouteFlushProvider(MuxClient& owner, RegisterId id)
      : owner_(&owner), id_(id) {}

  void RequestFlush(OpLabel label, OpScope scope) override {
    owner_->RouteFlush(id_, label, scope);
  }

 private:
  MuxClient* owner_;
  RegisterId id_;
};

// RAII batch scope: frames sent while at least one scope is open
// coalesce in the collector; the outermost close starts queued ops (so
// their first phase joins the same round) and flushes one batch frame
// per destination.
struct MuxClient::BatchScope {
  explicit BatchScope(MuxClient& owner) : client(owner) {
    ++client.scope_depth_;
  }
  ~BatchScope() {
    if (--client.scope_depth_ == 0) client.FlushRound();
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

  MuxClient& client;
};

MuxClient::MuxClient(ProtocolConfig config, std::vector<NodeId> servers,
                     ClientId client_id, std::size_t max_registers,
                     MuxBatchOptions batch)
    : config_(config),
      servers_(std::move(servers)),
      client_id_(client_id),
      max_registers_(max_registers),
      batch_(batch) {
  SBFT_ASSERT(max_registers_ >= 1);
  SBFT_ASSERT(batch_.max_ops >= 1);
  // One rehash up front instead of several during warm-up (the table
  // reaches max_registers_ in steady state under high concurrency).
  clients_.reserve(max_registers_);
  lru_pos_.reserve(max_registers_);
}

void MuxClient::OnStart(IEndpoint& endpoint) { endpoint_ = &endpoint; }

RegisterClient& MuxClient::GetOrCreate(RegisterId id) {
  SBFT_ASSERT(endpoint_ != nullptr);
  auto it = clients_.find(id);
  if (it == clients_.end()) {
    if (clients_.size() >= max_registers_) {
      // Evict the coldest IDLE register client (an in-flight operation
      // must never lose its callback). If everything is busy, exceed
      // the cap rather than wedge.
      for (auto lru_it = lru_.rbegin(); lru_it != lru_.rend(); ++lru_it) {
        const RegisterId cold = *lru_it;
        auto candidate = clients_.find(cold);
        if (candidate != clients_.end() && candidate->second.client->idle()) {
          clients_.erase(candidate);
          lru_.erase(std::next(lru_it).base());
          lru_pos_.erase(cold);
          break;
        }
      }
    }
    Entry entry;
    entry.endpoint = std::make_unique<RouteEndpoint>(*this, id);
    entry.client = std::make_unique<RegisterClient>(config_, servers_,
                                                    client_id_);
    // RegisterClient caches the endpoint passed to OnStart; the router
    // lives in the same Entry, so lifetimes match exactly.
    entry.client->OnStart(*entry.endpoint);
    entry.flush_provider = std::make_unique<RouteFlushProvider>(*this, id);
    entry.client->SetFlushProvider(entry.flush_provider.get());
    it = clients_.emplace(id, std::move(entry)).first;
  }
  TouchLru(lru_, lru_pos_, id);
  return *it->second.client;
}

void MuxClient::OnFrame(NodeId from, BytesView frame, IEndpoint&) {
  auto decoded = DecodeMessage(frame);
  if (!decoded.ok()) return;
  if (const auto* ack = std::get_if<NodeFlushAckMsg>(&decoded.value())) {
    OnNodeFlushAck(from, *ack);
    return;
  }
  const auto* batch = std::get_if<MuxBatchMsg>(&decoded.value());
  if (batch == nullptr) return;
  // One incoming frame carries one protocol phase of many ops. The
  // scope stays open across the whole dispatch, so every frame our
  // automata send in response coalesces into the next round's batch
  // frames — and ops submitted by completion callbacks fired here join
  // that same round instead of waiting out the batch window.
  BatchScope scope(*this);
  for (const MuxItem& item : batch->items) {
    DispatchInner(from, item.register_id, item.inner);
  }
}

void MuxClient::DispatchInner(NodeId from, RegisterId id, BytesView inner) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;  // reply for an evicted register
  it->second.client->OnFrame(from, inner, *it->second.endpoint);
}

void MuxClient::OnTimer(int timer_id, IEndpoint&) {
  if (timer_id != kMuxBatchTimerId) return;
  timer_armed_ = false;
  if (!pending_.empty()) FlushRound();
}

void MuxClient::OnBatchStart(IEndpoint&) { ++scope_depth_; }

void MuxClient::OnBatchEnd(IEndpoint&) {
  SBFT_ASSERT(scope_depth_ > 0);
  if (--scope_depth_ == 0) FlushRound();
}

// Inner clients send only while a scope is open: ops start inside
// FlushRound's scope, and replies and flush acks are dispatched inside
// OnFrame's.
void MuxClient::RouteSend(RegisterId id, NodeId dst, Bytes frame) {
  SBFT_ASSERT(scope_depth_ > 0);
  collector_.Add(dst, id, frame);
  FramePool().Release(std::move(frame));
}

void MuxClient::RouteBroadcast(RegisterId id, std::span<const NodeId> dsts,
                               Bytes frame) {
  SBFT_ASSERT(scope_depth_ > 0);
  collector_.AddBroadcast(dsts, id, frame);
  FramePool().Release(std::move(frame));
}

void MuxClient::OnNodeFlushAck(NodeId from, const NodeFlushAckMsg& ack) {
  // Distribute the node-level ack element-wise. Each item becomes the
  // per-register FlushAckMsg the inner automaton would have received
  // from `from` directly, so the threshold/stale-filtering/late-ack
  // semantics run verbatim inside RegisterClient. A Byzantine server
  // can equivocate labels or scopes per item; the inner stale-ack
  // filter drops anything that does not match the register's in-flight
  // label, exactly as it would for a forged per-register FLUSH_ACK.
  // The scope makes the READs that late acks trigger (Figure 3 lines
  // 13-15) coalesce into this round's batch frames.
  BatchScope scope(*this);
  for (const FlushItem& item : ack.items) {
    auto it = clients_.find(item.register_id);
    if (it == clients_.end()) continue;  // evicted or never ours
    FlushAckMsg inner;
    inner.label = item.label;
    inner.scope = item.scope;
    it->second.client->DeliverFlushAck(from, inner);
  }
}

void MuxClient::RouteFlush(RegisterId id, OpLabel label, OpScope scope) {
  SBFT_ASSERT(scope_depth_ > 0);  // the closing scope emits the window
  flush_.Request(id, label, scope);
}

void MuxClient::StartWrite(RegisterId id, Value value,
                           WriteCallback callback) {
  PendingOp op;
  op.id = id;
  op.is_write = true;
  op.value = std::move(value);
  op.write_cb = std::move(callback);
  Enqueue(std::move(op));
}

void MuxClient::StartRead(RegisterId id, ReadCallback callback) {
  PendingOp op;
  op.id = id;
  op.read_cb = std::move(callback);
  Enqueue(std::move(op));
}

void MuxClient::Enqueue(PendingOp op) {
  pending_.push_back(std::move(op));
  if (scope_depth_ > 0) return;  // the closing scope drains and flushes
  if (pending_.size() >= batch_.max_ops || batch_.max_delay == 0) {
    // Zero delay means "never trade latency for depth": an op arriving
    // outside any scope starts its round now. Ops arriving in the same
    // mailbox drain still coalesce — the runtime's OnBatchStart/End
    // bracket keeps a scope open across the whole drain, so they take
    // the early return above.
    FlushRound();
  } else {
    ArmTimer();
  }
}

void MuxClient::FlushRound() {
  if (endpoint_ == nullptr) return;  // batch boundary before OnStart
  // Start queued ops inside a reopened scope so their first-phase
  // broadcasts land in the frames flushed below.
  ++scope_depth_;
  DrainPending();
  --scope_depth_;
  // Close the shared-flush window first: every register that started an
  // op this round contributed one FlushItem, and the single NodeFlush
  // probe precedes the batch frames on each channel. Ordering between
  // the two is immaterial for the FIFO argument — the stale traffic a
  // flush must drain was sent in strictly earlier rounds — but a fixed
  // order keeps batched runs deterministic.
  flush_.CloseWindow(*endpoint_, servers_);
  collector_.Flush(*endpoint_);
}

void MuxClient::DrainPending() {
  draining_.clear();
  draining_.swap(pending_);
  for (PendingOp& op : draining_) {
    RegisterClient& client = GetOrCreate(op.id);
    if (!client.idle()) {
      // Same-register ops stay sequential: back in the queue for a
      // later round.
      pending_.push_back(std::move(op));
      continue;
    }
    if (op.is_write) {
      client.StartWrite(std::move(op.value), std::move(op.write_cb));
    } else {
      client.StartRead(std::move(op.read_cb));
    }
  }
  draining_.clear();
  // Requeued ops (a same-register predecessor is still in flight) wait
  // for the predecessor's replies, which arrive inside a batch scope
  // and re-run this drain at scope close. Only a positive max_delay
  // additionally bounds their wait with a timer: arming a zero-delay
  // timer here would fire at the current time and re-drain the same
  // non-idle ops forever (a busy-spin on the threaded backends, a
  // same-instant livelock in the sim).
  if (!pending_.empty() && batch_.max_delay > 0) ArmTimer();
}

void MuxClient::ArmTimer() {
  if (timer_armed_) return;
  SBFT_ASSERT(endpoint_ != nullptr);
  endpoint_->SetTimer(batch_.max_delay, kMuxBatchTimerId);
  timer_armed_ = true;
}

bool MuxClient::idle(RegisterId id) {
  for (const PendingOp& op : pending_) {
    if (op.id == id) return false;
  }
  auto it = clients_.find(id);
  return it == clients_.end() || it->second.client->idle();
}

void MuxClient::CorruptState(Rng& rng) {
  // One base draw, then a per-register fork keyed by the register id
  // (same scheme as MuxServer::CorruptState). The walk order is still
  // observable: each inner CorruptState fires its in-flight op's kFailed
  // callback, and callers draw from their own rng in those callbacks.
  const std::uint64_t base = rng();
  for (const RegisterId id : AscendingIds(lru_)) {
    // A callback may start an op outside any scope, whose round can
    // evict an idle client before the walk reaches it.
    auto it = clients_.find(id);
    if (it == clients_.end()) continue;
    Rng fork(base ^ (id * 0x9E3779B97F4A7C15ull));
    it->second.client->CorruptState(fork);
  }
  // The ops whose flush requests were waiting in the open window were
  // just destroyed (inner CorruptState fails in-flight ops); drop the
  // window rather than probe for dead labels.
  flush_.Clear();
}

}  // namespace sbft
