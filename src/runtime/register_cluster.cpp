#include "runtime/register_cluster.hpp"

#include <algorithm>
#include <future>

#include "common/error.hpp"

namespace sbft {
namespace {

/// Register hosting logical client `i` in multiplex mode. Offset by one
/// so no logical client lands on register 0 (kept free for tests that
/// poke the namespace directly).
RegisterId RegisterOf(std::size_t client) { return client + 1; }

}  // namespace

ThreadCluster::Options RegisterCluster::ClusterOptions(const Options& options) {
  ThreadCluster::Options cluster_options;
  cluster_options.use_tcp = options.use_tcp;
  cluster_options.seed = options.seed;
  cluster_options.shaping = options.shaping;
  return cluster_options;
}

RegisterCluster::RegisterCluster(const Options& options)
    : config_(options.config),
      cluster_(ClusterOptions(options)),
      op_timeout_(options.op_timeout),
      n_clients_(options.n_clients) {
  config_.Validate();
  std::vector<NodeId>& server_ids = server_ids_;
  for (std::size_t i = 0; i < config_.n; ++i) {
    std::unique_ptr<Automaton> server;
    if (options.multiplex) {
      MuxServer::ServerFactory factory;
      if (auto it = options.byzantine.find(i);
          it != options.byzantine.end()) {
        // Every register of a Byzantine replica misbehaves.
        factory = [strategy = it->second, config = config_, i,
                   seed = options.seed * 131 + i](RegisterId) {
          return MakeByzantineServer(strategy, config, i, seed);
        };
      }
      server = std::make_unique<MuxServer>(config_, i, /*max_registers=*/
                                           std::max<std::size_t>(
                                               1024, n_clients_ + 1),
                                           std::move(factory));
    } else if (auto it = options.byzantine.find(i);
               it != options.byzantine.end()) {
      server = MakeByzantineServer(it->second, config_, i,
                                   options.seed * 131 + i);
    } else {
      server = std::make_unique<RegisterServer>(config_, i);
    }
    server_ids.push_back(cluster_.AddNode(std::move(server)));
  }
  if (options.multiplex) {
    auto client = std::make_unique<MuxClient>(
        config_, server_ids, static_cast<ClientId>(config_.n),
        /*max_registers=*/std::max<std::size_t>(1024, n_clients_ + 1));
    mux_client_ = client.get();
    mux_client_id_ = cluster_.AddNode(std::move(client));
  } else {
    for (std::size_t i = 0; i < options.n_clients; ++i) {
      auto client = std::make_unique<RegisterClient>(
          config_, server_ids, static_cast<ClientId>(config_.n + i));
      clients_.push_back(client.get());
      client_ids_.push_back(cluster_.AddNode(std::move(client)));
    }
  }
}

void RegisterCluster::AsyncWrite(std::size_t client, Value value,
                                 WriteCallback callback) {
  if (mux_client_ != nullptr) {
    // Always a mailbox post, even from the mux node's own thread: the
    // round-trip makes the mailbox an op accumulator, so follow-ups
    // submitted by one wakeup's completion callbacks all start together
    // in the next wakeup — one wide shared-flush window. Starting them
    // in place would close a small window at the end of every receive
    // burst, multiplying NodeFlush rounds on the TCP backend (measured
    // ~25% worse at c256).
    cluster_.PostToNode(mux_client_id_,
                        [this, client, value = std::move(value),
                         callback = std::move(callback)]() mutable {
                          mux_client_->StartWrite(RegisterOf(client),
                                                  std::move(value),
                                                  std::move(callback));
                        });
    return;
  }
  // Fast path: a follow-up op submitted from a completion callback (the
  // closed-loop shape) already runs on the owning node's thread, so it
  // can start in place instead of paying a std::function allocation and
  // a mailbox round-trip. Safe because RegisterClient goes idle before
  // invoking the callback; no batching window exists on this path.
  if (cluster_.OnNodeThread(client_ids_[client])) {
    clients_[client]->StartWrite(std::move(value), std::move(callback));
    return;
  }
  cluster_.PostToNode(client_ids_[client],
                      [this, client, value = std::move(value),
                       callback = std::move(callback)]() mutable {
                        clients_[client]->StartWrite(std::move(value),
                                                     std::move(callback));
                      });
}

void RegisterCluster::AsyncRead(std::size_t client, ReadCallback callback) {
  if (mux_client_ != nullptr) {
    // Mailbox post even from the mux node's thread — see AsyncWrite.
    cluster_.PostToNode(mux_client_id_,
                        [this, client,
                         callback = std::move(callback)]() mutable {
                          mux_client_->StartRead(RegisterOf(client),
                                                 std::move(callback));
                        });
    return;
  }
  if (cluster_.OnNodeThread(client_ids_[client])) {
    clients_[client]->StartRead(std::move(callback));
    return;
  }
  cluster_.PostToNode(client_ids_[client],
                      [this, client, callback = std::move(callback)]() mutable {
                        clients_[client]->StartRead(std::move(callback));
                      });
}

void RegisterCluster::CorruptServer(std::size_t server_index,
                                    std::uint64_t seed) {
  SBFT_ASSERT(server_index < server_ids_.size());
  const NodeId node = server_ids_[server_index];
  cluster_.PostToNode(node, [this, node, seed] {
    Rng rng(seed);
    cluster_.node(node).CorruptState(rng);
  });
}

WriteOutcome RegisterCluster::Write(std::size_t client, Value value) {
  auto done = std::make_shared<std::promise<WriteOutcome>>();
  auto future = done->get_future();
  AsyncWrite(client, std::move(value), [done](const WriteOutcome& outcome) {
    done->set_value(outcome);
  });
  if (future.wait_for(op_timeout_) != std::future_status::ready) {
    return WriteOutcome{};  // kFailed
  }
  return future.get();
}

ReadOutcome RegisterCluster::Read(std::size_t client) {
  auto done = std::make_shared<std::promise<ReadOutcome>>();
  auto future = done->get_future();
  AsyncRead(client, [done](const ReadOutcome& outcome) {
    done->set_value(outcome);
  });
  if (future.wait_for(op_timeout_) != std::future_status::ready) {
    return ReadOutcome{};  // kFailed
  }
  return future.get();
}

}  // namespace sbft
