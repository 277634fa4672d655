#include "core/deployment.hpp"

namespace sbft {

Deployment::Deployment(Options options)
    : config_(options.config),
      world_(World::Options{options.seed, std::move(options.delay)}),
      byzantine_(std::move(options.byzantine)) {
  config_.Validate();
  SBFT_ASSERT(byzantine_.size() <= config_.f);

  for (std::size_t i = 0; i < config_.n; ++i) {
    std::unique_ptr<RegisterServer> server;
    if (auto it = byzantine_.find(i); it != byzantine_.end()) {
      server = MakeByzantineServer(it->second, config_, i,
                                   options.seed * 1000 + i);
    } else {
      server = std::make_unique<RegisterServer>(config_, i);
    }
    servers_.push_back(server.get());
    server_ids_.push_back(world_.AddNode(std::move(server)));
  }
  for (std::size_t i = 0; i < options.n_clients; ++i) {
    auto client = std::make_unique<RegisterClient>(
        config_, server_ids_, static_cast<ClientId>(config_.n + i));
    clients_.push_back(client.get());
    client_ids_.push_back(world_.AddNode(std::move(client)));
  }
  // Ensure OnStart runs (endpoints get cached) before ops are driven.
  world_.RunUntil([] { return true; }, 0);
}

Deployment::Driven<WriteOutcome> Deployment::Write(std::size_t client,
                                                   Value value,
                                                   std::uint64_t max_events) {
  Driven<WriteOutcome> driven;
  driven.invoked_at = world_.now();
  const NetworkStats before = world_.stats();
  bool done = false;
  clients_[client]->StartWrite(std::move(value),
                               [&](const WriteOutcome& outcome) {
                                 driven.outcome = outcome;
                                 driven.returned_at = world_.now();
                                 done = true;
                               });
  driven.completed = world_.RunUntil([&] { return done; }, max_events);
  driven.frames_sent = world_.stats().frames_sent - before.frames_sent;
  driven.bytes_sent = world_.stats().bytes_sent - before.bytes_sent;
  return driven;
}

Deployment::Driven<ReadOutcome> Deployment::Read(std::size_t client,
                                                 std::uint64_t max_events) {
  Driven<ReadOutcome> driven;
  driven.invoked_at = world_.now();
  const NetworkStats before = world_.stats();
  bool done = false;
  clients_[client]->StartRead([&](const ReadOutcome& outcome) {
    driven.outcome = outcome;
    driven.returned_at = world_.now();
    done = true;
  });
  driven.completed = world_.RunUntil([&] { return done; }, max_events);
  driven.frames_sent = world_.stats().frames_sent - before.frames_sent;
  driven.bytes_sent = world_.stats().bytes_sent - before.bytes_sent;
  return driven;
}

void Deployment::CorruptAllCorrectServers() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (!is_byzantine(i)) world_.CorruptNode(server_ids_[i]);
  }
}

void Deployment::CorruptServer(std::size_t i) {
  world_.CorruptNode(server_ids_[i]);
}

void Deployment::CorruptClient(std::size_t i) {
  world_.CorruptNode(client_ids_[i]);
}

void Deployment::CorruptAllChannels(std::size_t frames_per_channel) {
  for (NodeId server : server_ids_) {
    for (NodeId client : client_ids_) {
      world_.InjectGarbageFrames(server, client, frames_per_channel);
      world_.InjectGarbageFrames(client, server, frames_per_channel);
    }
  }
}

}  // namespace sbft
