// Threaded deployment of the register: n servers (optionally Byzantine)
// plus clients, each on its own OS thread, over in-process mailboxes or
// TCP loopback. Mirrors core/deployment.hpp for the real-concurrency
// setting (experiment E7, tcp_cluster example).
//
// Two client topologies:
//   * default — one RegisterClient node per logical client, mirroring
//     the sim deployment one-to-one;
//   * multiplex — ONE MuxClient node hosts all logical clients, each as
//     its own register (RegisterId = logical index + 1) over MuxServer
//     replicas. Operations of distinct logical clients are independent
//     protocol instances, so hundreds of them pipeline over a handful
//     of connections — the serving path every bench drives. The mux
//     client batches and shares FLUSH rounds; each node thread's
//     mailbox drain is the batch window (core/mux.hpp).
#pragma once

#include <chrono>
#include <map>

#include "core/byzantine.hpp"
#include "core/client.hpp"
#include "core/mux.hpp"
#include "runtime/cluster.hpp"

namespace sbft {

class RegisterCluster {
 public:
  struct Options {
    ProtocolConfig config;
    bool use_tcp = false;
    /// Host all logical clients in one MuxClient node (see file
    /// comment); servers become MuxServers.
    bool multiplex = false;
    /// Has no effect: the TCP transport has no threads of its own (each
    /// node thread drives its sockets). Kept so existing option sets
    /// that assign it still compile.
    std::size_t reactor_threads = 1;
    std::size_t n_clients = 1;
    std::map<std::size_t, ByzantineStrategy> byzantine;
    std::uint64_t seed = 1;
    /// Per-operation timeout; expired operations report kFailed (the
    /// asynchronous protocol never gives up on its own).
    std::chrono::milliseconds op_timeout{10'000};
    /// Slow/lossy link emulation for every inter-node link (see
    /// runtime/link_shaper.hpp); disabled when all-zero.
    LinkShaping shaping;
  };

  explicit RegisterCluster(const Options& options);
  ~RegisterCluster() { Stop(); }

  void Start() { cluster_.Start(); }
  void Stop() { cluster_.Stop(); }

  /// Asynchronous operations: the callback runs on the client node's
  /// thread once the protocol completes. Safe to call from any thread,
  /// but each logical client admits ONE in-flight operation at a time
  /// (issue the next from the callback for a closed loop).
  void AsyncWrite(std::size_t client, Value value, WriteCallback callback);
  void AsyncRead(std::size_t client, ReadCallback callback);

  /// Synchronous wrappers over the async API (block on a future, with
  /// op_timeout mapping to kFailed).
  WriteOutcome Write(std::size_t client, Value value);
  ReadOutcome Read(std::size_t client);

  /// Transient-fault injection hook: overwrite server `server_index`'s
  /// protocol state with seeded garbage (Automaton::CorruptState), on
  /// the server's own thread, while traffic keeps flowing. Safe to
  /// call from any thread after Start(); returns once the corruption
  /// task is queued (not applied).
  void CorruptServer(std::size_t server_index, std::uint64_t seed);

  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] ThreadCluster& cluster() { return cluster_; }
  [[nodiscard]] std::size_t n_clients() const { return n_clients_; }
  [[nodiscard]] bool multiplexed() const { return mux_client_ != nullptr; }
  /// NodeFlush rounds the mux client emitted (0 on non-mux topologies).
  /// Thread-safe only once traffic has quiesced.
  [[nodiscard]] std::uint64_t node_flush_rounds() const {
    return mux_client_ != nullptr ? mux_client_->node_flush_rounds() : 0;
  }

 private:
  static ThreadCluster::Options ClusterOptions(const Options& options);

  ProtocolConfig config_;
  ThreadCluster cluster_;
  std::chrono::milliseconds op_timeout_;
  std::size_t n_clients_ = 0;
  std::vector<NodeId> server_ids_;
  // Default topology: one node per logical client.
  std::vector<RegisterClient*> clients_;
  std::vector<NodeId> client_ids_;
  // Multiplex topology: all logical clients live in this node.
  MuxClient* mux_client_ = nullptr;
  NodeId mux_client_id_ = kNoNode;
};

}  // namespace sbft
