// Test/bench harness: a World wired with n register servers (some
// possibly Byzantine) and a set of clients, plus synchronous operation
// helpers that drive the simulation until an operation completes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/byzantine.hpp"
#include "core/client.hpp"
#include "core/config.hpp"
#include "core/server.hpp"
#include "sim/world.hpp"

namespace sbft {

class Deployment {
 public:
  struct Options {
    ProtocolConfig config;
    std::uint64_t seed = 1;
    std::unique_ptr<DelayPolicy> delay;  // default UniformDelay(1,10)
    /// Map server index -> strategy for Byzantine servers.
    std::map<std::size_t, ByzantineStrategy> byzantine;
    std::size_t n_clients = 1;
  };

  explicit Deployment(Options options);

  [[nodiscard]] World& world() { return world_; }
  [[nodiscard]] const ProtocolConfig& config() const { return config_; }
  [[nodiscard]] std::size_t n_clients() const { return clients_.size(); }

  [[nodiscard]] RegisterClient& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] NodeId client_node(std::size_t i) const {
    return client_ids_[i];
  }
  [[nodiscard]] RegisterServer& server(std::size_t i) { return *servers_[i]; }
  [[nodiscard]] NodeId server_node(std::size_t i) const {
    return server_ids_[i];
  }
  [[nodiscard]] const std::vector<NodeId>& server_nodes() const {
    return server_ids_;
  }
  [[nodiscard]] bool is_byzantine(std::size_t i) const {
    return byzantine_.count(i) != 0;
  }

  /// Result of a synchronously driven operation; `completed` false means
  /// the event cap was reached first (the op may be genuinely blocked —
  /// itself an observable in adversarial experiments).
  template <typename Outcome>
  struct Driven {
    bool completed = false;
    Outcome outcome;
    VirtualTime invoked_at = 0;
    VirtualTime returned_at = 0;
    std::uint64_t frames_sent = 0;  // network frames during the op (all traffic)
    std::uint64_t bytes_sent = 0;   // their bytes
  };

  Driven<WriteOutcome> Write(std::size_t client, Value value,
                             std::uint64_t max_events = 1'000'000);
  Driven<ReadOutcome> Read(std::size_t client,
                           std::uint64_t max_events = 1'000'000);

  // --- Transient-fault helpers (E2) -----------------------------------

  /// Corrupt the local state of every *correct* server (Byzantine ones
  /// are already adversarial).
  void CorruptAllCorrectServers();
  void CorruptServer(std::size_t i);
  void CorruptClient(std::size_t i);
  /// Plant garbage frames in every channel between clients and servers.
  void CorruptAllChannels(std::size_t frames_per_channel = 2);

 private:
  ProtocolConfig config_;
  World world_;
  std::map<std::size_t, ByzantineStrategy> byzantine_;
  std::vector<RegisterServer*> servers_;
  std::vector<NodeId> server_ids_;
  std::vector<RegisterClient*> clients_;
  std::vector<NodeId> client_ids_;
};

}  // namespace sbft
