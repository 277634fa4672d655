// Sharded deployment: G independent register groups behind a
// client-side consistent-hash router.
//
// Each group is a full RegisterCluster — its own n > 5f server
// population, quorum system, batching mux with shared FLUSH rounds
// (core/mux.hpp), mailbox namespace, and (on TCP) its own listener
// sockets and connections, each driven by the node thread that owns it
// — so groups share NOTHING but the process: protocol and socket work
// of different groups runs on different node threads and scales with
// cores. The router consistent-hashes 64-bit keys over the groups (core/
// shard_map.hpp) and forwards the async register API, so the load
// driver and benches drive a sharded deployment exactly as they drive
// one group.
//
// Live growth (AddGroup) bumps the shard-map epoch; ~1/(G+1) of the key
// space re-routes to the new group. Migration is drain-and-handoff per
// key: a migrated key's WRITES go to its new group immediately, while
// READS stay anchored to the group holding the key's latest complete
// write until the first write completes in the new group. The new
// group's register starts in its initial state — exactly a transient
// fault in the paper's model — and the anchor rule keeps the handoff
// invisible to the per-key regular-register checker: no read is routed
// at a group before that group holds a completed write for the key
// (the same Definition-1 suffix anchoring the fuzz checker applies per
// key). Correctness requires the mux per-register contract callers
// already obey: at most one in-flight operation per key, the next
// issued from (or after) the previous one's completion callback.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/shard_map.hpp"
#include "runtime/register_cluster.hpp"

namespace sbft {

class ShardedCluster {
 public:
  struct Options {
    /// Per-group deployment template (servers, transport, link
    /// shaping, ...; multiplex must be set). Each group forks its own
    /// seed from `group.seed` so groups are independent but the whole
    /// deployment stays reproducible.
    RegisterCluster::Options group;
    std::size_t n_groups = 1;
    std::size_t vnodes_per_group = ShardMap::kDefaultVnodesPerGroup;
  };

  explicit ShardedCluster(const Options& options);
  ~ShardedCluster() { Stop(); }

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  void Start();
  void Stop();

  /// Async register API, routed by key. Callbacks run on the owning
  /// group's mux-client node thread. Same contract as RegisterCluster:
  /// one in-flight operation per key.
  void AsyncWrite(std::uint64_t key, Value value, WriteCallback callback);
  void AsyncRead(std::uint64_t key, ReadCallback callback);

  /// Synchronous wrappers (block on a future; the group's op_timeout
  /// maps expiry to kFailed).
  WriteOutcome Write(std::uint64_t key, Value value);
  ReadOutcome Read(std::uint64_t key);

  /// Grow the deployment by one group while traffic flows: builds and
  /// starts the group, then installs the next shard-map epoch. Returns
  /// the new group's id. Safe from any thread EXCEPT a node thread of
  /// this deployment's clusters (it blocks on the new group's startup).
  GroupId AddGroup();

  /// Transient-fault hook: corrupt server `server_index` of EVERY
  /// group (the per-group seed is shared so corruption agrees across
  /// the replicas of each group, as RegisterCluster::CorruptServer
  /// documents; registers fork per-id, so groups diverge naturally).
  void CorruptServer(std::size_t server_index, std::uint64_t seed);

  [[nodiscard]] std::size_t n_groups() const;
  [[nodiscard]] std::uint64_t epoch() const;
  /// Routing observables (tests / diagnostics): where writes of `key`
  /// go now, and where reads of `key` are currently anchored.
  [[nodiscard]] GroupId WriteGroupOf(std::uint64_t key) const;
  [[nodiscard]] GroupId ReadGroupOf(std::uint64_t key) const;
  /// Keys whose read anchor disagrees with the current map — i.e. keys
  /// still awaiting their first complete write post-migration.
  [[nodiscard]] std::size_t keys_awaiting_handoff() const;

  /// Aggregates over all groups (throughput / protocol-CPU accounting,
  /// quiescent-read like the per-cluster counters).
  [[nodiscard]] std::uint64_t frames_delivered() const;
  [[nodiscard]] std::uint64_t protocol_cpu_ns() const;
  [[nodiscard]] std::uint64_t node_flush_rounds() const;

  /// Direct group access for tests (index < n_groups()).
  [[nodiscard]] RegisterCluster& group(std::size_t index);

 private:
  [[nodiscard]] RegisterCluster* RouteWrite(std::uint64_t key,
                                            GroupId* group_out);
  [[nodiscard]] RegisterCluster* RouteRead(std::uint64_t key);
  /// A completed write anchors the key's reads at the group that served
  /// it (the drain-and-handoff flip).
  void RecordWriteHome(std::uint64_t key, GroupId group);

  static RegisterCluster::Options GroupOptions(const Options& options,
                                               std::size_t group_index);

  Options options_;
  /// Routing lock, taken with the load driver's run-state mutex held
  /// (StartOp -> AsyncWrite -> RouteWrite). Protocol calls and user
  /// callbacks always run after it is released, so it acquires
  /// nothing nested.
  mutable Mutex mutex_ ACQUIRED_AFTER(lock_order::kLoadDriver);
  /// Groups are append-only (AddGroup) and destroyed only by Stop();
  /// raw RegisterCluster pointers taken under the lock stay valid, so
  /// the actual protocol call runs outside it.
  std::vector<std::unique_ptr<RegisterCluster>> groups_ GUARDED_BY(mutex_);
  ShardMap map_ GUARDED_BY(mutex_);
  /// key -> group holding its latest COMPLETE write. Reads route here
  /// when present; absent keys follow the current map (never-written
  /// keys hold the initial value everywhere, so any group is regular
  /// for them). One entry per written key — the same order of state as
  /// the groups' own mux register tables. Correct across repeated
  /// AddGroup epochs: the anchor only moves when a write completes, so
  /// it always names the group that actually holds the data.
  std::unordered_map<std::uint64_t, GroupId> write_home_ GUARDED_BY(mutex_);
  bool started_ GUARDED_BY(mutex_) = false;
  bool stopped_ GUARDED_BY(mutex_) = false;
};

}  // namespace sbft
