#include "runtime/sharded_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <utility>

#include "common/error.hpp"

namespace sbft {
namespace {

/// Register hosting `key` in its group's mux. Offset by one so no key
/// lands on register 0 (kept free for tests that poke the namespace
/// directly).
RegisterId RegisterOf(std::uint64_t key) { return key + 1; }

/// How long the synchronous Write/Read wait before reporting kFailed.
constexpr std::chrono::seconds kOpTimeout{10};

}  // namespace

ShardedCluster::Group::Group(GroupKey /*key*/, const GroupOptions& options,
                             std::uint64_t seed)
    : cluster_(ThreadCluster::Options{.seed = seed,
                                      .shaping = options.shaping}) {
  const ProtocolConfig& config = options.config;
  config.Validate();
  const std::size_t max_registers =
      std::max<std::size_t>(1024, options.n_clients + 1);
  std::vector<NodeId> server_ids;
  for (std::size_t i = 0; i < config.n; ++i) {
    MuxServer::ServerFactory factory;
    if (auto it = options.byzantine.find(i); it != options.byzantine.end()) {
      // Every register of a Byzantine replica misbehaves.
      factory = [strategy = it->second, config, i,
                 server_seed = seed * 131 + i](RegisterId) {
        return MakeByzantineServer(strategy, config, i, server_seed);
      };
    }
    server_ids.push_back(cluster_.AddNode(std::make_unique<MuxServer>(
        config, i, max_registers, std::move(factory))));
  }
  auto client = std::make_unique<MuxClient>(
      config, server_ids, static_cast<ClientId>(config.n), max_registers);
  client_ = client.get();
  client_id_ = cluster_.AddNode(std::move(client));
}

std::unique_ptr<ShardedCluster::Group> ShardedCluster::MakeGroup(
    std::size_t index) const {
  return std::make_unique<Group>(GroupKey(), options_.group,
                                 options_.group.seed * 8191 + index);
}

ShardedCluster::ShardedCluster(const Options& options) : options_(options) {
  SBFT_ASSERT(options.n_groups >= 1);
  // Build the groups BEFORE taking the router lock: the router lock is
  // declared to order before nothing runtime-side (docs/ARCHITECTURE.md
  // lock-order DAG), and group construction binds sockets. A
  // constructor has no concurrency anyway — the lock below only
  // publishes the assembled state, as AddGroup already does.
  std::vector<std::unique_ptr<Group>> groups;
  groups.reserve(options.n_groups);
  for (std::size_t g = 0; g < options.n_groups; ++g) {
    groups.push_back(MakeGroup(g));
  }
  MutexLock lock(mutex_);
  map_ = ShardMap::Initial(options.n_groups);
  groups_ = std::move(groups);
}

void ShardedCluster::Start() {
  std::vector<Group*> groups;
  {
    MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
    for (auto& group : groups_) groups.push_back(group.get());
  }
  for (Group* group : groups) group->cluster_.Start();
}

void ShardedCluster::Stop() {
  // Join outside the lock: node threads may be blocked in RouteWrite/
  // RecordWriteHome. The groups themselves live until destruction.
  std::vector<Group*> groups;
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    for (auto& group : groups_) groups.push_back(group.get());
  }
  for (Group* group : groups) group->cluster_.Stop();
}

ShardedCluster::Group* ShardedCluster::RouteWrite(std::uint64_t key,
                                                  GroupId* group_out) {
  MutexLock lock(mutex_);
  SBFT_ASSERT(started_ && !stopped_);
  const GroupId g = map_.GroupOf(key);
  *group_out = g;
  return groups_[g].get();
}

ShardedCluster::Group* ShardedCluster::RouteRead(std::uint64_t key) {
  MutexLock lock(mutex_);
  SBFT_ASSERT(started_ && !stopped_);
  const auto it = write_home_.find(key);
  const GroupId g = it != write_home_.end() ? it->second : map_.GroupOf(key);
  return groups_[g].get();
}

void ShardedCluster::RecordWriteHome(std::uint64_t key, GroupId group) {
  MutexLock lock(mutex_);
  if (stopped_) return;
  write_home_[key] = group;
}

void ShardedCluster::AsyncWrite(std::uint64_t key, Value value,
                                WriteCallback callback) {
  GroupId g = 0;
  Group* group = RouteWrite(key, &g);
  // The anchor flips BEFORE the user callback runs: a read issued from
  // the write's completion callback must already route to the group
  // that just acknowledged the write.
  WriteCallback anchored = [this, key, g, callback = std::move(callback)](
                               const WriteOutcome& outcome) {
    if (outcome.status == OpStatus::kOk) RecordWriteHome(key, g);
    callback(outcome);
  };
  // Always a mailbox post, even from the mux node's own thread: the
  // round-trip makes the mailbox an op accumulator, so follow-ups
  // submitted by one wakeup's completion callbacks all start together
  // in the next wakeup — one wide shared-flush window. Starting them
  // in place would close a small window at the end of every receive
  // burst, multiplying NodeFlush rounds (measured ~25% worse at
  // c256).
  group->cluster_.PostToNode(
      group->client_id_,
      [client = group->client_, key, value = std::move(value),
       callback = std::move(anchored)]() mutable {
        client->StartWrite(RegisterOf(key), std::move(value),
                           std::move(callback));
      });
}

void ShardedCluster::AsyncRead(std::uint64_t key, ReadCallback callback) {
  Group* group = RouteRead(key);
  // Mailbox post even from the mux node's thread — see AsyncWrite.
  group->cluster_.PostToNode(
      group->client_id_,
      [client = group->client_, key, callback = std::move(callback)]() mutable {
        client->StartRead(RegisterOf(key), std::move(callback));
      });
}

WriteOutcome ShardedCluster::Write(std::uint64_t key, Value value) {
  auto done = std::make_shared<std::promise<WriteOutcome>>();
  auto future = done->get_future();
  AsyncWrite(key, std::move(value), [done](const WriteOutcome& outcome) {
    done->set_value(outcome);
  });
  if (future.wait_for(kOpTimeout) != std::future_status::ready) {
    return WriteOutcome{};  // kFailed
  }
  return future.get();
}

ReadOutcome ShardedCluster::Read(std::uint64_t key) {
  auto done = std::make_shared<std::promise<ReadOutcome>>();
  auto future = done->get_future();
  AsyncRead(key, [done](const ReadOutcome& outcome) {
    done->set_value(outcome);
  });
  if (future.wait_for(kOpTimeout) != std::future_status::ready) {
    return ReadOutcome{};  // kFailed
  }
  return future.get();
}

GroupId ShardedCluster::AddGroup() {
  std::size_t index = 0;
  {
    MutexLock lock(mutex_);
    SBFT_ASSERT(started_ && !stopped_);
    index = groups_.size();
  }
  // Build and start the new group OUTSIDE the lock (TCP startup binds
  // listeners and spawns threads — far too slow to serialize against
  // the routing fast path). Concurrent AddGroup calls are the caller's
  // bug; the index check below turns a race into a crash, not silent
  // misrouting.
  std::unique_ptr<Group> group = MakeGroup(index);
  group->cluster_.Start();
  {
    MutexLock lock(mutex_);
    SBFT_ASSERT(!stopped_);
    SBFT_ASSERT(groups_.size() == index);
    groups_.push_back(std::move(group));
    // Installing the map is the atomic handoff: ops routed before this
    // line use the old epoch, ops after it the new one. Migrated keys'
    // reads keep following write_home_ until a write completes in the
    // new group.
    map_ = map_.WithGroupAdded();
  }
  return static_cast<GroupId>(index);
}

void ShardedCluster::CorruptServer(std::size_t server_index,
                                   std::uint64_t seed) {
  SBFT_ASSERT(server_index < options_.group.config.n);
  const auto node = static_cast<NodeId>(server_index);
  std::vector<ThreadCluster*> clusters;
  {
    MutexLock lock(mutex_);
    SBFT_ASSERT(started_ && !stopped_);
    for (auto& group : groups_) clusters.push_back(&group->cluster_);
  }
  for (ThreadCluster* cluster : clusters) {
    cluster->PostToNode(node, [cluster, node, seed] {
      Rng rng(seed);
      cluster->node(node).CorruptState(rng);
    });
  }
}

std::size_t ShardedCluster::n_groups() const {
  MutexLock lock(mutex_);
  return groups_.size();
}

std::uint64_t ShardedCluster::epoch() const {
  MutexLock lock(mutex_);
  return map_.epoch();
}

GroupId ShardedCluster::WriteGroupOf(std::uint64_t key) const {
  MutexLock lock(mutex_);
  return map_.GroupOf(key);
}

GroupId ShardedCluster::ReadGroupOf(std::uint64_t key) const {
  MutexLock lock(mutex_);
  const auto it = write_home_.find(key);
  return it != write_home_.end() ? it->second : map_.GroupOf(key);
}

std::size_t ShardedCluster::keys_awaiting_handoff() const {
  MutexLock lock(mutex_);
  std::size_t waiting = 0;
  for (const auto& [key, home] : write_home_) {
    if (home != map_.GroupOf(key)) ++waiting;
  }
  return waiting;
}

std::uint64_t ShardedCluster::frames_delivered() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->cluster_.frames_delivered();
  }
  return total;
}

std::uint64_t ShardedCluster::protocol_cpu_ns() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->cluster_.protocol_cpu_ns();
  }
  return total;
}

std::uint64_t ShardedCluster::node_flush_rounds() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->client_->node_flush_rounds();
  }
  return total;
}

ShardedCluster::Group& ShardedCluster::group(std::size_t index) {
  MutexLock lock(mutex_);
  SBFT_ASSERT(index < groups_.size());
  return *groups_[index];
}

}  // namespace sbft
