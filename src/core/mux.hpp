// Multi-register storage service: many independent registers multiplexed
// over one server/client population.
//
// The paper emulates a single register; a cloud storage service needs a
// namespace of them. Composition is by envelope: every inner protocol
// frame travels as a MuxItem{register_id, inner} inside a MuxBatch frame,
// and each side hosts a table of per-register automata behind endpoint
// adaptors that collect outgoing frames under the same register id. The
// inner automata are the UNCHANGED RegisterServer / RegisterClient — all
// correctness and stabilization arguments apply per register verbatim,
// because the registers share nothing but the transport.
//
// There is one client path: the mux client always batches (frames of
// every register started or answered in one batch scope share one
// MuxBatch frame per destination) and always shares FLUSH (one
// node-level NodeFlush probe per window instead of one FlushMsg per op;
// core/mux_flush.hpp). See docs/ARCHITECTURE.md, "Protocol-round
// batching" and "Shared FLUSH rounds".
//
// Bounded state: the server-side table is capped (LRU-evicting an idle
// register re-admits it later in its initial state — equivalent to a
// transient fault on that register, which the protocol tolerates by
// design).
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/byzantine.hpp"
#include "core/client.hpp"
#include "core/mux_flush.hpp"
#include "core/server.hpp"
#include "net/message.hpp"

namespace sbft {

/// Derive a register id from a string key (FNV-1a). Collisions alias
/// keys onto the same register — acceptable for a 64-bit space.
RegisterId RegisterIdOf(std::string_view key);

/// Window for ops submitted OUTSIDE any batch scope. Inside a scope
/// (the threaded runtime opens one around every mailbox drain) ops
/// always queue and start together when the scope closes, so these
/// values only shape callers that submit between scopes, such as the
/// simulator.
struct MuxBatchOptions {
  /// Start the queued ops as soon as the queue reaches this depth.
  std::size_t max_ops = 1;
  /// Latency bound: a timer fired this long after the first queued op
  /// starts the queue even if max_ops was never reached. With
  /// max_delay = 0 (the default) no timer is ever armed and an op
  /// submitted outside any scope starts its round immediately.
  VirtualTime max_delay = 0;
};

/// Per-destination accumulation of enveloped inner frames during a
/// batch scope. Builders live in an ordered map and flush in ascending
/// NodeId order, so batched runs stay deterministic in the sim. The map
/// nodes persist across rounds; only the pooled frame buffers turn over.
class MuxBatchCollector {
 public:
  void Add(NodeId dst, RegisterId id, BytesView inner);
  void AddBroadcast(std::span<const NodeId> dsts, RegisterId id,
                    BytesView inner);
  /// Emit one MuxBatch frame per destination that has pending items.
  void Flush(IEndpoint& out);
  [[nodiscard]] bool empty() const { return pending_frames_ == 0; }

 private:
  std::map<NodeId, MuxBatchBuilder> builders_;
  std::size_t pending_frames_ = 0;
};

class MuxServer : public Automaton {
 public:
  /// `factory` builds the per-register server (honest by default;
  /// Byzantine factories let tests attack individual registers).
  using ServerFactory =
      std::function<std::unique_ptr<RegisterServer>(RegisterId)>;

  MuxServer(ProtocolConfig config, std::size_t server_index,
            std::size_t max_registers = 1024, ServerFactory factory = {});

  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;
  /// Across one runtime batch, replies to ALL dispatched batch frames
  /// coalesce and flush once at the boundary (per-frame otherwise).
  void OnBatchStart(IEndpoint& endpoint) override;
  void OnBatchEnd(IEndpoint& endpoint) override;
  void CorruptState(Rng& rng) override;

  [[nodiscard]] std::size_t register_count() const { return registers_.size(); }
  /// nullptr if the register was never touched (or was evicted).
  [[nodiscard]] RegisterServer* Find(RegisterId id);

  /// Byzantine test seam (see core/mux_flush.hpp): mutate the echoed
  /// items of every node-level flush ack this server sends.
  void SetFlushAckMutator(FlushAckMutator mutator) {
    flush_ack_mutator_ = std::move(mutator);
  }
  /// NodeFlush probes answered (diagnostics/tests).
  [[nodiscard]] std::uint64_t node_flushes_acked() const {
    return node_flushes_acked_;
  }

 private:
  RegisterServer& GetOrCreate(RegisterId id);

  ProtocolConfig config_;
  std::size_t index_;
  std::size_t max_registers_;
  ServerFactory factory_;
  /// Hash tables, not ordered maps: the per-item dispatch loop does one
  /// find per batch element (dozens per op at high concurrency). Nothing
  /// iterates them; a walk over every register (CorruptState) goes in
  /// ascending id order through a sorted copy of lru_.
  std::unordered_map<RegisterId, std::unique_ptr<RegisterServer>> registers_;
  std::list<RegisterId> lru_;  // front = most recent
  /// Position of each id inside lru_, so a touch is an O(1) splice
  /// instead of an O(n) list walk (hot with hundreds of live registers).
  std::unordered_map<RegisterId, std::list<RegisterId>::iterator> lru_pos_;
  /// Replies produced while dispatching incoming batch frames; they
  /// leave as one batch frame per destination, mirroring the request
  /// side. Reused across frames. Flushed per frame, or — inside a
  /// runtime batch (OnBatchStart/End) — once per drained batch.
  MuxBatchCollector collector_;
  int batch_depth_ = 0;
  FlushAckMutator flush_ack_mutator_;
  std::uint64_t node_flushes_acked_ = 0;
};

class MuxClient : public Automaton {
 public:
  MuxClient(ProtocolConfig config, std::vector<NodeId> servers,
            ClientId client_id, std::size_t max_registers = 1024,
            MuxBatchOptions batch = {});

  void OnStart(IEndpoint& endpoint) override;
  void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) override;
  void OnTimer(int timer_id, IEndpoint& endpoint) override;
  /// Runtime batch boundary: one scope spans the whole drained batch,
  /// so frames sent in response to EVERY item of one wakeup — and ops
  /// submitted by tasks or callbacks inside it — share one round (the
  /// 5-10x lever on the threaded backends).
  void OnBatchStart(IEndpoint& endpoint) override;
  void OnBatchEnd(IEndpoint& endpoint) override;
  void CorruptState(Rng& rng) override;

  /// Operations on independent registers may run concurrently; two
  /// operations on the SAME register must be sequential (as for a
  /// plain RegisterClient). A submitted op waits in the pending queue
  /// until the open batch scope closes — or, outside any scope, for up
  /// to max_delay — before its first protocol phase goes out.
  void StartWrite(RegisterId id, Value value, WriteCallback callback);
  void StartRead(RegisterId id, ReadCallback callback);
  [[nodiscard]] bool idle(RegisterId id);

  /// Ops queued but not yet started (diagnostics/tests).
  [[nodiscard]] std::size_t pending_ops() const { return pending_.size(); }
  /// NodeFlush rounds emitted so far — the amortization observable:
  /// this grows ~W times slower than the op count for a full window
  /// of W.
  [[nodiscard]] std::uint64_t node_flush_rounds() const {
    return flush_.rounds();
  }

  // String-key convenience (KV store facade).
  void Put(std::string_view key, Value value, WriteCallback callback) {
    StartWrite(RegisterIdOf(key), std::move(value), std::move(callback));
  }
  void Get(std::string_view key, ReadCallback callback) {
    StartRead(RegisterIdOf(key), std::move(callback));
  }

 private:
  /// An inner client plus the routing endpoint it cached at OnStart
  /// (the router must live exactly as long as the client). The flush
  /// provider routes the client's FLUSH rounds through the owning mux's
  /// coordinator the same way.
  ///
  /// This lifetime rule is per-NODE: each mux node owns the routers of
  /// its inner clients and nothing outside the node may hold one. The
  /// sharded deployment (runtime/sharded_cluster.hpp) adds a second
  /// routing layer ABOVE the mux — the consistent-hash ShardMap picking
  /// which group's mux an op enters — with the opposite lifetime
  /// discipline: shard maps are immutable values, grown by copy
  /// (WithGroupAdded) under the cluster lock, never mutated in place,
  /// so no mux ever observes a map changing beneath an op in flight.
  struct Entry {
    std::unique_ptr<IEndpoint> endpoint;
    std::unique_ptr<FlushProvider> flush_provider;
    std::unique_ptr<RegisterClient> client;
  };

  /// A submitted op waiting for the next shared round.
  struct PendingOp {
    RegisterId id = 0;
    bool is_write = false;
    Value value;
    WriteCallback write_cb;
    ReadCallback read_cb;
  };

  class RouteEndpoint;
  class RouteFlushProvider;
  struct BatchScope;

  RegisterClient& GetOrCreate(RegisterId id);
  void DispatchInner(NodeId from, RegisterId id, BytesView inner);
  void RouteSend(RegisterId id, NodeId dst, Bytes frame);
  void RouteBroadcast(RegisterId id, std::span<const NodeId> dsts,
                      Bytes frame);
  /// A register's FLUSH round joins the open window; the closing scope
  /// emits it as one NodeFlush round.
  void RouteFlush(RegisterId id, OpLabel label, OpScope scope);
  /// Distribute a node-level flush ack element-wise to the inner
  /// automata (late acks included — the per-register safe-set extension
  /// of Figure 3 lines 13-15 happens inside the clients).
  void OnNodeFlushAck(NodeId from, const NodeFlushAckMsg& ack);
  void Enqueue(PendingOp op);
  /// Start queued ops and flush the collected frames as one round.
  void FlushRound();
  void DrainPending();
  void ArmTimer();

  ProtocolConfig config_;
  std::vector<NodeId> servers_;
  ClientId client_id_;
  std::size_t max_registers_;
  MuxBatchOptions batch_;
  IEndpoint* endpoint_ = nullptr;
  /// Hash tables for the same reason as MuxServer: reply dispatch and
  /// node-flush-ack distribution do one find per item. The same
  /// ascending-id rule holds for walks.
  std::unordered_map<RegisterId, Entry> clients_;
  std::list<RegisterId> lru_;
  std::unordered_map<RegisterId, std::list<RegisterId>::iterator> lru_pos_;
  MuxBatchCollector collector_;
  SharedFlushCoordinator flush_;
  /// Depth of nested batch scopes. Inner automata only send while one
  /// is open, so every outgoing frame coalesces.
  int scope_depth_ = 0;
  bool timer_armed_ = false;
  std::vector<PendingOp> pending_;
  std::vector<PendingOp> draining_;  // scratch for DrainPending
};

}  // namespace sbft
