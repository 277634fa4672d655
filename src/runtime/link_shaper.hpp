// Slow-link emulation for the threaded runtime.
//
// The simulator degrades channels natively (World::DegradeChannel);
// the threaded cluster's links are TCP loopback connections with
// whatever latency the machine gives them. LinkShaper puts a
// configurable wide-area link in front of dispatch: each frame is
// delayed by delay_us + uniform jitter, drawn from an Rng seeded by
// the cluster, so a given run shapes the same way each time (modulo
// thread scheduling). Loss is out of scope here: the threaded runtime
// has no retransmission, so a lost frame could wedge its operation;
// lossy links belong to a transport that carries the data link
// (src/net/datalink*).
//
// Placement: ThreadCluster routes frames through the shaper at
// RECEIVE time — after the socket read, before dispatch; shaped frames
// reach their node through its mailbox — which keeps the TcpBus
// send-side threading contract intact.
// Jittered delays may reorder frames between a pair of nodes; the
// protocol tolerates reordering (see tests/integration/
// full_stack_test.cpp), and the paper's model only assumes eventual
// delivery on correct links.
//
// Threading: Offer is called on the receiving node's thread; one
// shaper thread owns the release heap and forwards due frames.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/frame.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "sim/types.hpp"

namespace sbft {

/// Link-shaping parameters; all-zero means "no shaping" and the
/// cluster bypasses the shaper entirely.
struct LinkShaping {
  /// Added one-way delay per frame, microseconds.
  std::uint64_t delay_us = 0;
  /// Uniform jitter: the actual delay is delay_us + U[0, jitter_us].
  std::uint64_t jitter_us = 0;

  [[nodiscard]] bool enabled() const {
    return delay_us != 0 || jitter_us != 0;
  }
};

class LinkShaper {
 public:
  /// Delivers a frame that finished its shaped delay.
  using ForwardFn = std::function<void(NodeId src, NodeId dst, Frame frame)>;

  /// `seed` seeds the jitter stream.
  LinkShaper(LinkShaping options, std::uint64_t seed, ForwardFn forward);
  ~LinkShaper();

  LinkShaper(const LinkShaper&) = delete;
  LinkShaper& operator=(const LinkShaper&) = delete;

  void Start();
  /// Stop the shaper thread; frames still queued are dropped (only
  /// called while the cluster is tearing down).
  void Stop();

  /// Hand a frame to the shaper. Returns true when the shaper consumed
  /// it (it is forwarded once its delay runs out); false, leaving
  /// `frame` intact, when the caller should dispatch it directly
  /// (shaper not running, or this frame drew zero delay).
  bool Offer(NodeId src, NodeId dst, Frame&& frame);

 private:
  struct Pending {
    std::uint64_t release_us;  // steady_clock, microseconds
    std::uint64_t order;       // FIFO tiebreak for equal deadlines
    NodeId src;
    NodeId dst;
    Frame frame;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.release_us != b.release_us ? a.release_us > b.release_us
                                          : a.order > b.order;
    }
  };

  void Loop();

  LinkShaping options_;
  ForwardFn forward_;
  /// Leaf lock (lock_order::kLinkShaper): Loop releases it before
  /// calling forward_, so no mailbox acquisition ever nests under it.
  mutable Mutex mutex_;
  /// Min-heap on release_us via std::push_heap/pop_heap (a
  /// priority_queue cannot move out its top; Frame is move-only).
  std::vector<Pending> heap_ GUARDED_BY(mutex_);
  Rng rng_ GUARDED_BY(mutex_);
  std::uint64_t next_order_ GUARDED_BY(mutex_) = 0;
  bool running_ GUARDED_BY(mutex_) = false;
  CondVar wake_;
  std::thread thread_;
};

}  // namespace sbft
