// The threaded deployment of the register: G independent register
// groups behind a client-side consistent-hash router. Mirrors core/
// deployment.hpp for the real-concurrency setting; the load driver,
// benches and examples all drive this one class (G = 1 is the
// single-group deployment).
//
// Each group is the serving topology: n > 5f MuxServer nodes plus ONE
// MuxClient node that hosts every key as its own register (key k is
// register k + 1) on its own ThreadCluster — its own quorum system,
// mailbox namespace, listener sockets and connections, each driven by
// the node thread that owns it. The mux
// client batches and shares FLUSH rounds; each node thread's mailbox
// drain is the batch window (core/mux.hpp). Operations on distinct
// keys are independent protocol instances, so hundreds of them
// pipeline over a handful of connections. Groups share NOTHING but the
// process: protocol and socket work of different groups runs on
// different node threads and scales with cores. The router
// consistent-hashes 64-bit keys over the groups (core/shard_map.hpp).
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
// key). Correctness requires the mux per-register contract: at most
// one in-flight operation per key, the next issued from (or after) the
// previous one's completion callback.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/byzantine.hpp"
#include "core/mux.hpp"
#include "core/shard_map.hpp"
#include "runtime/cluster.hpp"

namespace sbft {

class ShardedCluster {
  /// Passkey: Group's constructor is public for std::make_unique, but
  /// only ShardedCluster can make the key it takes.
  class GroupKey {
    friend class ShardedCluster;
    GroupKey() = default;
  };

 public:
  /// Deployment template shared by every group.
  struct GroupOptions {
    ProtocolConfig config;
    /// Keys the deployment serves: each group's mux tables hold
    /// max(1024, n_clients + 1) registers.
    std::size_t n_clients = 1;
    /// Byzantine servers by index, in every group; every register of
    /// such a server misbehaves.
    std::map<std::size_t, ByzantineStrategy> byzantine;
    /// Group g forks its seed as seed * 8191 + g, so groups draw
    /// independent randomness (ports, rng streams) while the whole
    /// deployment stays reproducible from one seed.
    std::uint64_t seed = 1;
    /// Slow-link emulation for every inter-node link, held in each
    /// receiving node's loop (see runtime/cluster.hpp); disabled when
    /// all-zero.
    LinkShaping shaping;
    /// Have no effect: every group is the serving topology, TCP on
    /// loopback is the only transport, and it has no threads of its
    /// own (each node thread drives its sockets). Kept so option sets
    /// that assign them still compile.
    bool multiplex = true;
    bool use_tcp = true;
    std::size_t reactor_threads = 1;
  };

  struct Options {
    GroupOptions group;
    std::size_t n_groups = 1;
  };

  /// One register group: servers are nodes 0..n-1 of its ThreadCluster,
  /// the mux client is node n.
  class Group {
   public:
    Group(GroupKey key, const GroupOptions& options, std::uint64_t seed);

    [[nodiscard]] ThreadCluster& cluster() { return cluster_; }

   private:
    friend class ShardedCluster;

    ThreadCluster cluster_;
    MuxClient* client_ = nullptr;  // owned by cluster_
    NodeId client_id_ = kNoNode;
  };

  explicit ShardedCluster(const Options& options);
  ~ShardedCluster() { Stop(); }

  ShardedCluster(const ShardedCluster&) = delete;
  ShardedCluster& operator=(const ShardedCluster&) = delete;

  void Start();
  /// Joins every group's node threads. The groups stay: the aggregates
  /// below keep their final values after Stop(). Idempotent.
  void Stop();

  /// Async register API, routed by key. Callbacks run on the owning
  /// group's mux-client node thread. Safe to call from any thread, but
  /// each key admits ONE in-flight operation at a time (issue the next
  /// from the callback for a closed loop).
  void AsyncWrite(std::uint64_t key, Value value, WriteCallback callback);
  void AsyncRead(std::uint64_t key, ReadCallback callback);

  /// Synchronous wrappers over the async API: block on a future, and
  /// report kFailed after 10 s (the asynchronous protocol never gives
  /// up on its own). Never from a node thread.
  WriteOutcome Write(std::uint64_t key, Value value);
  ReadOutcome Read(std::uint64_t key);

  /// Grow the deployment by one group while traffic flows: builds and
  /// starts the group, then installs the next shard-map epoch. Returns
  /// the new group's id. Safe from any thread EXCEPT a node thread of
  /// this deployment (it blocks on the new group's startup).
  GroupId AddGroup();

  /// Transient-fault hook: overwrite server `server_index`'s protocol
  /// state with seeded garbage (Automaton::CorruptState) in EVERY
  /// group, on the server's own thread, while traffic keeps flowing.
  /// The seed is shared, so corruption agrees across the replicas of
  /// each group; registers fork it per id, so groups diverge
  /// naturally. Safe from any thread after Start(); returns once the
  /// corruption tasks are queued (not applied).
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

  /// Aggregates over all groups (throughput / protocol-CPU accounting).
  [[nodiscard]] std::uint64_t frames_delivered() const;
  [[nodiscard]] std::uint64_t protocol_cpu_ns() const;
  /// NodeFlush rounds the groups' mux clients emitted. A plain field of
  /// each client node: exact after Stop(), or after a no-op RunOnNode
  /// on every node once traffic has quiesced; not safe under traffic.
  [[nodiscard]] std::uint64_t node_flush_rounds() const;

  /// Direct group access for tests (index < n_groups()).
  [[nodiscard]] Group& group(std::size_t index);

 private:
  [[nodiscard]] std::unique_ptr<Group> MakeGroup(std::size_t index) const;
  [[nodiscard]] Group* RouteWrite(std::uint64_t key, GroupId* group_out);
  [[nodiscard]] Group* RouteRead(std::uint64_t key);
  /// A completed write anchors the key's reads at the group that served
  /// it (the drain-and-handoff flip).
  void RecordWriteHome(std::uint64_t key, GroupId group);

  Options options_;
  /// Routing lock, taken with the load driver's run-state mutex held
  /// (StartOp -> AsyncWrite -> RouteWrite). Protocol calls and user
  /// callbacks always run after it is released, so it acquires
  /// nothing nested.
  mutable Mutex mutex_ ACQUIRED_AFTER(lock_order::kLoadDriver);
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
  /// Groups are append-only (AddGroup) and destroyed only with the
  /// deployment; raw Group pointers taken under the lock stay valid,
  /// so the actual protocol call runs outside it. Declared last, so
  /// the groups are freed before the router tables: in the other order
  /// a process that builds and frees deployments one after another
  /// (sbft_bench's set-up builds 15) ended 15-20 MB higher in RSS on a
  /// 4-vCPU Linux VM.
  std::vector<std::unique_ptr<Group>> groups_ GUARDED_BY(mutex_);
};

}  // namespace sbft
