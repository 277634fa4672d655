// The discrete-event simulation world.
//
// Models the system of §II: a finite set of processes connected by
// reliable FIFO point-to-point channels under full asynchrony. The world
// owns the event queue, the channels, the trace recorder and all node
// automata; execution is single-threaded and fully deterministic given
// the seed and the delay policy.
//
// Transient faults (§II failure model) are first-class operations:
//   * CorruptNode(id)            — overwrite a node's local state;
//   * InjectGarbageFrames(...)   — plant arbitrary bytes in a channel
//                                  (corrupted channel contents);
//   * ScrambleChannel(...)       — overwrite frames already in flight.
// Byzantine behaviour is *not* a world concern: a Byzantine server is
// just an Automaton with hostile code (see core/byzantine.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/frame.hpp"
#include "common/rng.hpp"
#include "sim/delay.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace sbft {

class IEndpoint;

/// A protocol state machine. Handlers run to completion; re-entrancy is
/// impossible because the world delivers one event at a time.
class Automaton {
 public:
  virtual ~Automaton() = default;

  /// Called once when the world starts running (time 0), after any
  /// initial-state corruption has been applied.
  virtual void OnStart(IEndpoint& /*endpoint*/) {}

  /// A frame arrived on the FIFO channel from `from`. The frame may be
  /// garbage: decoding failures must be handled, never propagated.
  virtual void OnFrame(NodeId from, BytesView frame, IEndpoint& endpoint) = 0;

  virtual void OnTimer(int /*timer_id*/, IEndpoint& /*endpoint*/) {}

  /// Runtime batch boundary: a threaded backend dispatches the frames
  /// and tasks of each wakeup together and brackets each non-empty
  /// wakeup with these hooks, so an automaton can coalesce everything
  /// it sends in response to one wakeup into shared frames (the
  /// protocol-round batching seam; see core/mux.hpp). The sim world
  /// delivers one event at a time and never calls them — handlers must
  /// therefore not depend on the hooks for correctness, only for
  /// coalescing.
  virtual void OnBatchStart(IEndpoint& /*endpoint*/) {}
  virtual void OnBatchEnd(IEndpoint& /*endpoint*/) {}

  /// Transient fault: overwrite all local protocol state with arbitrary
  /// values drawn from `rng`. Implementations must leave the object in a
  /// memory-safe (though semantically arbitrary) state.
  virtual void CorruptState(Rng& /*rng*/) {}
};

/// The interface automata use to act on the world.
class IEndpoint {
 public:
  virtual ~IEndpoint() = default;
  virtual void Send(NodeId dst, Bytes frame) = 0;

  /// Send one frame to many destinations. Quorum protocols encode a
  /// broadcast message once and hand it here; transports that can share
  /// the payload (sim world, threaded cluster, mux) override this to
  /// fan out without per-destination copies. The default routes through
  /// the virtual Send so wrapper endpoints stay correct unmodified.
  virtual void Broadcast(std::span<const NodeId> dsts, Bytes frame) {
    for (std::size_t i = 0; i + 1 < dsts.size(); ++i) {
      Send(dsts[i], Bytes(frame));
    }
    if (!dsts.empty()) Send(dsts.back(), std::move(frame));
  }

  virtual void SetTimer(VirtualTime delay, int timer_id) = 0;
  [[nodiscard]] virtual VirtualTime Now() const = 0;
  [[nodiscard]] virtual NodeId self() const = 0;
  /// Per-node deterministic randomness (forked from the world seed).
  virtual Rng& rng() = 0;
};

class World {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Base delay policy; defaults to UniformDelay(1, 10).
    std::unique_ptr<DelayPolicy> delay;
  };

  explicit World(Options options);
  World() : World(Options{}) {}
  ~World();  // out-of-line: Endpoint is incomplete here

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Register a node; returns its id (assigned densely from 0).
  NodeId AddNode(std::unique_ptr<Automaton> automaton);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Automaton& node(NodeId id);
  [[nodiscard]] VirtualTime now() const { return now_; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  TraceRecorder& trace() { return trace_; }
  Rng& rng() { return rng_; }

  /// Deliver the next pending event. Returns false if the queue is empty.
  bool Step();

  /// Run until the event queue drains or `max_events` deliveries happen.
  /// Returns the number of events processed. Calls OnStart on nodes not
  /// yet started.
  std::uint64_t Run(std::uint64_t max_events = 10'000'000);

  /// Run until `predicate()` is true or the queue drains / cap is hit.
  /// Returns true iff the predicate held when it stopped.
  bool RunUntil(const std::function<bool()>& predicate,
                std::uint64_t max_events = 10'000'000);

  /// Schedule `fn` to run at now()+delay as a world event (used by
  /// workload drivers to start operations at chosen times).
  void ScheduleCall(VirtualTime delay, std::function<void()> fn);

  // --- Fault injection -----------------------------------------------

  /// Transient fault on a node's memory.
  void CorruptNode(NodeId id);

  /// Plant `count` frames of arbitrary bytes in channel src->dst, as if
  /// they were in flight when the execution started. FIFO order places
  /// them ahead of anything sent later.
  void InjectGarbageFrames(NodeId src, NodeId dst, std::size_t count,
                           std::size_t max_frame_size = 64);

  /// Overwrite every frame currently scheduled on src->dst with garbage
  /// of the same size (in-flight corruption).
  void ScrambleChannel(NodeId src, NodeId dst);

  /// Stop a node (client crash): pending and future frames to it are
  /// dropped, and it sends nothing further.
  void StopNode(NodeId id);
  [[nodiscard]] bool IsStopped(NodeId id) const;

  // --- Adversarial scheduling ----------------------------------------

  /// Hold all frames entering channel src->dst (they queue up, FIFO).
  /// With capture_in_flight, frames already scheduled on the channel are
  /// pulled back into the hold buffer too ("freeze the channel now") —
  /// the scripted-adversary primitive used by the Theorem 1 replay.
  void HoldChannel(NodeId src, NodeId dst, bool capture_in_flight = false);

  // --- Weak-channel emulation (data-link substrate tests) -------------

  /// Degrade channel src->dst: frames are dropped with probability
  /// `loss` and, when `unordered`, delivery order is no longer FIFO.
  /// This deliberately BREAKS the §II channel assumptions — only the
  /// data-link shim (net/datalink_shim.hpp) is expected to function on
  /// such channels; the register protocol runs on top of the shim.
  void DegradeChannel(NodeId src, NodeId dst, double loss, bool unordered);
  /// Release a held channel; buffered frames are scheduled in order.
  void ReleaseChannel(NodeId src, NodeId dst);

 private:
  /// One scheduled occurrence. Kept hot-path small (~64 bytes): the cold
  /// std::function payload of kCall events lives in the `calls_` side
  /// table, referenced through `aux`.
  struct Event {
    VirtualTime time = 0;
    std::uint64_t seq = 0;  // FIFO tie-break
    enum class Kind : std::uint8_t { kDeliver, kTimer, kCall } kind =
        Kind::kDeliver;
    NodeId src = kNoNode;
    NodeId dst = kNoNode;
    std::int32_t aux = 0;  // kTimer: timer id; kCall: slot in calls_
    Frame frame;  // move-only; broadcasts share one payload across events
  };
  struct ChannelState {
    VirtualTime last_scheduled = 0;  // enforces FIFO delivery order
    bool held = false;
    std::deque<Frame> held_frames;
    double loss = 0.0;       // DegradeChannel
    bool unordered = false;  // DegradeChannel
  };
  class Endpoint;  // concrete IEndpoint bound to one node

  void EnqueueDelivery(NodeId src, NodeId dst, Frame frame);
  void StartPendingNodes();
  /// Node ids are dense from 0, so registered channels live in a flat
  /// dim×dim table. Corrupted automata can address arbitrary NodeIds;
  /// those rare out-of-range channels fall back to a sparse map.
  ChannelState& Channel(NodeId src, NodeId dst) {
    if (src < channel_dim_ && dst < channel_dim_) {
      return channel_table_[src * channel_dim_ + dst];
    }
    return channel_fallback_[{src, dst}];
  }
  void GrowChannelTable(std::size_t dim);

  Rng rng_;
  std::unique_ptr<DelayPolicy> delay_;
  VirtualTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  CalendarQueue<Event> queue_;
  std::vector<std::function<void()>> calls_;  // kCall side table
  std::vector<std::uint32_t> free_call_slots_;
  std::vector<std::unique_ptr<Automaton>> nodes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<bool> stopped_;
  std::vector<bool> started_;
  std::vector<ChannelState> channel_table_;  // dim×dim, row = src
  std::size_t channel_dim_ = 0;
  std::map<std::pair<NodeId, NodeId>, ChannelState> channel_fallback_;
  TraceRecorder trace_;
  NetworkStats stats_;
};

}  // namespace sbft
