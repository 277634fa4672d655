#include "runtime/sharded_cluster.hpp"

#include <future>
#include <utility>

#include "common/error.hpp"

namespace sbft {

RegisterCluster::Options ShardedCluster::GroupOptions(
    const Options& options, std::size_t group_index) {
  RegisterCluster::Options group = options.group;
  // Fork the seed so groups draw independent randomness (ports, rng
  // streams) while the deployment stays reproducible from one seed.
  group.seed = options.group.seed * 8191 + group_index;
  return group;
}

ShardedCluster::ShardedCluster(const Options& options) : options_(options) {
  SBFT_ASSERT(options.n_groups >= 1);
  // The sharded layer routes by 64-bit key over the mux register
  // namespace; the one-node-per-client topology has no key namespace.
  SBFT_ASSERT(options.group.multiplex);
  // Build the groups BEFORE taking the router lock: the router lock is
  // declared to order before nothing runtime-side (docs/ARCHITECTURE.md
  // lock-order DAG), and group construction binds sockets. A
  // constructor has no concurrency anyway — the lock below only
  // publishes the assembled state, as AddGroup already does.
  std::vector<std::unique_ptr<RegisterCluster>> groups;
  groups.reserve(options.n_groups);
  for (std::size_t g = 0; g < options.n_groups; ++g) {
    groups.push_back(
        std::make_unique<RegisterCluster>(GroupOptions(options, g)));
  }
  MutexLock lock(mutex_);
  map_ = ShardMap::Initial(options.n_groups, options.vnodes_per_group);
  groups_ = std::move(groups);
}

void ShardedCluster::Start() {
  std::vector<RegisterCluster*> groups;
  {
    MutexLock lock(mutex_);
    if (started_) return;
    started_ = true;
    for (auto& group : groups_) groups.push_back(group.get());
  }
  for (RegisterCluster* group : groups) group->Start();
}

void ShardedCluster::Stop() {
  // Destruction must run outside the lock: group Stop() joins node
  // threads that may be blocked in RouteWrite/RecordWriteHome.
  std::vector<std::unique_ptr<RegisterCluster>> groups;
  {
    MutexLock lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    groups.swap(groups_);
  }
  for (auto& group : groups) group->Stop();
}

RegisterCluster* ShardedCluster::RouteWrite(std::uint64_t key,
                                            GroupId* group_out) {
  MutexLock lock(mutex_);
  SBFT_ASSERT(started_ && !stopped_);
  const GroupId g = map_.GroupOf(key);
  *group_out = g;
  return groups_[g].get();
}

RegisterCluster* ShardedCluster::RouteRead(std::uint64_t key) {
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
  RegisterCluster* group = RouteWrite(key, &g);
  // The anchor flips BEFORE the user callback runs: a read issued from
  // the write's completion callback must already route to the group
  // that just acknowledged the write.
  group->AsyncWrite(
      key, std::move(value),
      [this, key, g, callback = std::move(callback)](
          const WriteOutcome& outcome) {
        if (outcome.status == OpStatus::kOk) RecordWriteHome(key, g);
        callback(outcome);
      });
}

void ShardedCluster::AsyncRead(std::uint64_t key, ReadCallback callback) {
  RouteRead(key)->AsyncRead(key, std::move(callback));
}

WriteOutcome ShardedCluster::Write(std::uint64_t key, Value value) {
  auto done = std::make_shared<std::promise<WriteOutcome>>();
  auto future = done->get_future();
  AsyncWrite(key, std::move(value), [done](const WriteOutcome& outcome) {
    done->set_value(outcome);
  });
  if (future.wait_for(options_.group.op_timeout) !=
      std::future_status::ready) {
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
  if (future.wait_for(options_.group.op_timeout) !=
      std::future_status::ready) {
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
  auto group = std::make_unique<RegisterCluster>(GroupOptions(options_, index));
  group->Start();
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
  std::vector<RegisterCluster*> groups;
  {
    MutexLock lock(mutex_);
    SBFT_ASSERT(started_ && !stopped_);
    for (auto& group : groups_) groups.push_back(group.get());
  }
  for (RegisterCluster* group : groups) {
    group->CorruptServer(server_index, seed);
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
    total += group->cluster().frames_delivered();
  }
  return total;
}

std::uint64_t ShardedCluster::protocol_cpu_ns() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& group : groups_) {
    total += group->cluster().protocol_cpu_ns();
  }
  return total;
}

std::uint64_t ShardedCluster::node_flush_rounds() const {
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->node_flush_rounds();
  return total;
}

RegisterCluster& ShardedCluster::group(std::size_t index) {
  MutexLock lock(mutex_);
  SBFT_ASSERT(index < groups_.size());
  return *groups_[index];
}

}  // namespace sbft
