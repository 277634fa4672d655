// Threaded runtime: the same Automaton objects that run in the
// deterministic simulator run here on real OS threads, communicating
// through mailboxes (in-process mode) or TCP sockets on loopback.
//
// Design: one thread per node, and that thread is the node's whole
// event loop. It waits in one epoll set holding the node's mailbox
// eventfd and, on TCP, the node's listener and connections; it reads
// its own sockets, dispatches frames and mailbox tasks to the
// automaton, and writes what they sent. No other thread touches the
// node's sockets or automaton, so handlers stay single-threaded
// exactly as in the simulator (no locks inside protocol code). Client
// operations are injected as tasks onto the owning node's thread via
// PostToNode/RunOnNode, and synchronous wrappers (ShardedCluster::
// Write/Read) wait on a future.
#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/link_shaper.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/tcp.hpp"
#include "sim/world.hpp"

namespace sbft {

class ThreadCluster {
 public:
  struct Options {
    /// Use TCP sockets on 127.0.0.1 instead of in-process mailboxes for
    /// the transport (mailboxes still carry tasks to the node thread).
    bool use_tcp = false;
    std::uint64_t seed = 1;
    /// Slow/lossy link emulation applied to every inter-node frame at
    /// delivery time (both transports); disabled when all-zero.
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
  /// Idempotent.
  void Stop();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] Automaton& node(NodeId id) { return *nodes_.at(id); }

  /// Run `fn` on the node's thread (with exclusive access to its
  /// automaton) and wait for it to finish. Never from that node's own
  /// thread, which would wait for itself.
  void RunOnNode(NodeId id, std::function<void()> fn);

  /// Fire-and-forget variant (no join); used by completion callbacks.
  void PostToNode(NodeId id, std::function<void()> fn);

  /// Chaos hook (TCP only): drop the (src, dst) connection as if the
  /// peer reset it. Safe from any thread: the drop is posted to src,
  /// whose thread owns the socket. The next send reconnects.
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
  void Deliver(NodeId src, NodeId dst, Bytes frame);
  void DeliverBroadcast(NodeId src, std::span<const NodeId> dsts, Bytes frame);

  /// Push one delivered frame to `dst`'s mailbox (the in-process
  /// delivery path; also the LinkShaper's forward target).
  void PushFrame(NodeId src, NodeId dst, Frame frame);
  /// True when the shaper consumed the frame (it will be pushed later,
  /// or was dropped by a lossy link).
  bool Shape(NodeId src, NodeId dst, Frame& frame);

  Options options_;
  std::vector<std::unique_ptr<Automaton>> nodes_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// One epoll set per node: its mailbox eventfd and, on TCP, its
  /// sockets. Closed after the sockets (destructor).
  std::vector<int> epoll_fds_;
  std::vector<std::thread> threads_;
  std::unique_ptr<TcpBus> tcp_;
  std::unique_ptr<LinkShaper> shaper_;
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> protocol_cpu_ns_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace sbft
