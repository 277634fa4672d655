// Threaded runtime: the same Automaton objects that run in the
// deterministic simulator run here on real OS threads, communicating
// over TCP sockets on loopback — one connection per ordered node pair,
// the reliable FIFO channel the paper's model (§II) assumes.
//
// Design: one thread per node, and that thread is the node's whole
// event loop. It waits in one epoll set holding the node's mailbox
// eventfd, listener and connections; it reads its own sockets,
// dispatches frames and mailbox tasks to the automaton, and writes
// what they sent. No other thread touches the node's sockets or
// automaton, so handlers stay single-threaded exactly as in the
// simulator (no locks inside protocol code). Client
// operations are injected as tasks onto the owning node's thread via
// PostToNode/RunOnNode, and synchronous wrappers (ShardedCluster::
// Write/Read) wait on a future.
//
// Slow links: with LinkShaping enabled, the receiving node's loop holds
// each frame it reads for delay_us + U[0, jitter_us] before dispatch,
// in a per-node release heap that its wait deadline covers (the same
// microsecond deadline as its timers). Shaping at receive time keeps
// the TcpBus send-side contract intact. Jittered delays may reorder
// frames between a pair of nodes; the protocol tolerates reordering
// (see tests/integration/full_stack_test.cpp), and the paper's model
// only assumes eventual delivery on correct links.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"
#include "runtime/tcp.hpp"
#include "sim/world.hpp"

namespace sbft {

/// Link-shaping parameters; all-zero means "no shaping" and every frame
/// is dispatched in place from its receive buffer. Loss is out of scope
/// here: the threaded runtime has no retransmission, so a lost frame
/// could wedge its operation; lossy links belong to a transport that
/// carries the data link (src/net/datalink*).
struct LinkShaping {
  /// Added one-way delay per frame, microseconds.
  std::uint64_t delay_us = 0;
  /// Uniform jitter: the actual delay is delay_us + U[0, jitter_us].
  std::uint64_t jitter_us = 0;

  [[nodiscard]] bool enabled() const {
    return delay_us != 0 || jitter_us != 0;
  }
};

class ThreadCluster {
 public:
  struct Options {
    /// Seeds the node rng streams and the nodes' jitter streams.
    std::uint64_t seed = 1;
    /// Slow-link emulation applied to every inter-node frame as it is
    /// received; disabled when all-zero.
    LinkShaping shaping;
  };

  explicit ThreadCluster(Options options);
  ThreadCluster() : ThreadCluster(Options{}) {}
  ~ThreadCluster();

  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  /// Register a node before Start().
  NodeId AddNode(std::unique_ptr<Automaton> automaton);

  /// Spawn node threads and run OnStart hooks on each node's own
  /// thread.
  void Start();

  /// Close mailboxes, join node threads, then close the sockets — in
  /// that order, so every socket outlives the thread that drives it.
  /// Frames still held by shaping are dropped. Idempotent.
  void Stop();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Automaton& node(NodeId id) { return *nodes_.at(id); }

  /// Run `fn` on the node's thread (with exclusive access to its
  /// automaton) and wait for it to finish. Never from that node's own
  /// thread, which would wait for itself.
  void RunOnNode(NodeId id, std::function<void()> fn);

  /// Fire-and-forget variant (no join); used by completion callbacks.
  void PostToNode(NodeId id, std::function<void()> fn);

  /// Chaos hook: drop the (src, dst) connection as if the peer reset
  /// it. Safe from any thread: the drop is posted to src, whose thread
  /// owns the socket. The next send reconnects.
  void DropConnection(NodeId src, NodeId dst);

  /// Total frames delivered across all nodes (throughput accounting).
  [[nodiscard]] std::uint64_t frames_delivered() const {
    return frames_delivered_.load(std::memory_order_relaxed);
  }

  /// Thread-CPU nanoseconds spent inside automaton dispatch — from
  /// frame decode through handlers to reply encode, summed over all
  /// node threads. The wait, socket reads and socket writes sit outside
  /// the measured bracket, so this isolates protocol CPU from transport
  /// and scheduling cost (the numerator of bench_throughput's
  /// protocol_cpu_us_per_op metric).
  [[nodiscard]] std::uint64_t protocol_cpu_ns() const {
    return protocol_cpu_ns_.load(std::memory_order_relaxed);
  }

 private:
  class Endpoint;

  /// True when the calling thread IS node `id`'s thread (inside its
  /// NodeLoop: a handler, task or completion callback). RunOnNode
  /// asserts it is false, since the task could never run.
  [[nodiscard]] bool OnNodeThread(NodeId id) const;
  void NodeLoop(NodeId id);

  Options options_;
  std::vector<std::unique_ptr<Automaton>> nodes_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// One epoll set per node: its mailbox eventfd and its sockets.
  /// Closed after the sockets (destructor).
  std::vector<int> epoll_fds_;
  std::vector<std::thread> threads_;
  TcpBus tcp_;
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> protocol_cpu_ns_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace sbft
