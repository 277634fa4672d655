// The threaded deployment: G independent register groups behind the
// consistent-hash router (runtime/sharded_cluster.hpp), each group one
// batching, FLUSH-sharing mux client over its servers.
//
// What must hold:
//   * pipelined keys of one group share one client node and one TCP
//     connection per server; frames of many registers coalesce into
//     shared MuxBatch rounds with one NodeFlush per window, yet each
//     key must still see ITS operations complete in issue order with
//     read-your-writes (MuxPipeline);
//   * routing is read-your-writes per key across groups under
//     pipelined concurrency — and the recorded history passes the
//     per-key regular-register checker;
//   * live growth (AddGroup) migrates ~1/(G+1) of the keys with
//     drain-and-handoff reads: a migrated key keeps reading its old
//     group's value until its first write completes in the new group,
//     so regularity holds straight through the epoch bump.
#include "runtime/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "load/stabilization.hpp"
#include "spec/history.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

ShardedCluster::Options BaseOptions(std::size_t n_groups,
                                    std::size_t n_keys) {
  ShardedCluster::Options options;
  options.group.config = ProtocolConfig::ForServers(6);
  options.group.n_clients = n_keys;
  options.n_groups = n_groups;
  return options;
}

struct ShardedRun {
  struct PerKey {
    std::vector<std::string> reads;  // value seen by read i
    int completed_pairs = 0;
  };
  std::vector<PerKey> keys;
  int failures = 0;
  History history;  // wall-clock µs stamps, OpRecord::client = key
};

// Pipelined closed loop over the sharded deployment: each key runs
// `pairs` write+read pairs, the next op issued from the completion
// callback (callbacks arrive on G different mux node threads, hence
// the lock). Records every op as a History and each key's read values.
// `on_progress`, when set, sees the running completed-op count — the
// hook the migration test uses to AddGroup mid-run.
ShardedRun RunShardedWorkload(ShardedCluster& cluster, std::size_t n_keys,
                              int pairs,
                              std::function<void(int)> on_progress = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  auto now_us = [start] {
    return static_cast<VirtualTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  ShardedRun run;
  run.keys.resize(n_keys);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done_keys = 0;
  int completed = 0;
  std::atomic<int> failures{0};

  std::function<void(std::uint64_t, int)> inject_write = [&](std::uint64_t k,
                                                             int i) {
    const std::string text = "k" + std::to_string(k) + "#" + std::to_string(i);
    OpRecord write_rec;
    write_rec.kind = OpRecord::Kind::kWrite;
    write_rec.client = static_cast<std::uint32_t>(k);
    write_rec.invoked_at = now_us();
    write_rec.value = Val(text);
    cluster.AsyncWrite(k, Val(text), [&, k, i,
                                      write_rec](const WriteOutcome& write) {
      if (write.status != OpStatus::kOk) failures.fetch_add(1);
      int done_count = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        OpRecord done = write_rec;
        done.returned_at = now_us();
        done.result = write.status == OpStatus::kOk
                          ? OpRecord::Result::kOk
                          : OpRecord::Result::kFailed;
        run.history.Add(std::move(done));
        done_count = ++completed;
      }
      if (on_progress) on_progress(done_count);
      OpRecord read_rec;
      read_rec.kind = OpRecord::Kind::kRead;
      read_rec.client = static_cast<std::uint32_t>(k);
      read_rec.invoked_at = now_us();
      cluster.AsyncRead(k, [&, k, i, read_rec](const ReadOutcome& read) {
        if (read.status != OpStatus::kOk) failures.fetch_add(1);
        int after_read = 0;
        {
          std::lock_guard<std::mutex> lock(mutex);
          OpRecord done = read_rec;
          done.returned_at = now_us();
          done.result = read.status == OpStatus::kOk
                            ? OpRecord::Result::kOk
                            : OpRecord::Result::kAborted;
          done.value = read.value;
          run.history.Add(std::move(done));
          run.keys[k].reads.emplace_back(read.value.begin(),
                                         read.value.end());
          run.keys[k].completed_pairs = i + 1;
          after_read = ++completed;
        }
        if (on_progress) on_progress(after_read);
        if (i + 1 < pairs) {
          inject_write(k, i + 1);
          return;
        }
        std::lock_guard<std::mutex> lock(mutex);
        ++done_keys;
        done_cv.notify_one();
      });
    });
  };
  for (std::uint64_t k = 0; k < n_keys; ++k) inject_write(k, 0);

  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(120), [&] {
      return done_keys == n_keys;
    })) << "sharded closed loop did not finish";
  }
  run.failures = failures.load();
  return run;
}

// Read i follows write i with nothing in between on a single-writer
// register, so it must return exactly value i — the per-key ordering
// guarantee across the shared connection and shared rounds.
void ExpectPerClientOrdering(const ShardedRun& run, std::size_t n_keys,
                             int pairs) {
  EXPECT_EQ(run.failures, 0);
  for (std::size_t k = 0; k < n_keys; ++k) {
    ASSERT_EQ(run.keys[k].completed_pairs, pairs) << "key " << k;
    ASSERT_EQ(run.keys[k].reads.size(), static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
      EXPECT_EQ(run.keys[k].reads[static_cast<std::size_t>(i)],
                "k" + std::to_string(k) + "#" + std::to_string(i))
          << "key " << k << " op " << i;
    }
  }
}

TEST(MuxPipeline, SixtyFourClientsPreservePerClientOrdering) {
  ShardedCluster cluster(BaseOptions(1, 64));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 64, 5);
  cluster.Stop();
  ExpectPerClientOrdering(run, 64, 5);
}

// Synchronous ops, one at a time: each starts in its own mailbox drain,
// a window of one.
TEST(MuxPipeline, InprocMultiplexedClientsReadTheirWrites) {
  constexpr std::size_t kClients = 16;
  ShardedCluster cluster(BaseOptions(1, kClients));
  cluster.Start();
  for (std::size_t c = 0; c < kClients; ++c) {
    const Value value = Val("v" + std::to_string(c));
    ASSERT_EQ(cluster.Write(c, value).status, OpStatus::kOk);
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    auto read = cluster.Read(c);
    ASSERT_EQ(read.status, OpStatus::kOk);
    EXPECT_EQ(read.value, Val("v" + std::to_string(c))) << c;
  }
  cluster.Stop();
}

TEST(MuxPipeline, BatchedTcpClientsOrderedAndRegular) {
  ShardedCluster cluster(BaseOptions(1, 64));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 64, 5);
  cluster.Stop();
  ExpectPerClientOrdering(run, 64, 5);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// A second workload shape, 32 keys x 4 pairs, must give the identical
// guarantee.
TEST(MuxPipeline, BatchedInprocClientsOrderedAndRegular) {
  ShardedCluster cluster(BaseOptions(1, 32));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 32, 4);
  cluster.Stop();
  ExpectPerClientOrdering(run, 32, 4);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// ---- Shared FLUSH rounds ---------------------------------------------

// The pipelined workloads again, also demanding that their FLUSH phases
// went out as node-level NodeFlush rounds, in both workload shapes.
TEST(MuxPipeline, SharedFlushTcpClientsOrderedAndRegular) {
  ShardedCluster cluster(BaseOptions(1, 64));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 64, 5);
  cluster.Stop();
  ExpectPerClientOrdering(run, 64, 5);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GE(cluster.node_flush_rounds(), 1u);
}

TEST(MuxPipeline, SharedFlushInprocClientsOrderedAndRegular) {
  ShardedCluster cluster(BaseOptions(1, 32));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 32, 4);
  cluster.Stop();
  ExpectPerClientOrdering(run, 32, 4);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GE(cluster.node_flush_rounds(), 1u);
}

// Amortization on the threaded runtime: 32 keys x 8 writes = 256 ops
// need 256 FLUSH phases, but shared windows must pack them into far
// fewer NodeFlush rounds. Measured after Stop() so the counter is
// quiescent.
TEST(MuxPipeline, SharedFlushAmortizesNodeFlushRounds) {
  ShardedCluster cluster(BaseOptions(1, 32));
  cluster.Start();
  std::atomic<int> remaining{32};
  std::mutex mutex;
  std::condition_variable done_cv;
  std::function<void(std::size_t, int)> next = [&](std::size_t c, int i) {
    if (i == 8) {
      if (remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex);
        done_cv.notify_one();
      }
      return;
    }
    cluster.AsyncWrite(c, Val("v" + std::to_string(i)),
                       [&, c, i](const WriteOutcome& outcome) {
                         EXPECT_EQ(outcome.status, OpStatus::kOk);
                         next(c, i + 1);
                       });
  };
  for (std::size_t c = 0; c < 32; ++c) next(c, 0);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(60),
                                 [&] { return remaining.load() == 0; }));
  }
  cluster.Stop();
  const std::uint64_t rounds = cluster.node_flush_rounds();
  EXPECT_GE(rounds, 1u);
  // 256 ops; each window spans one mailbox drain. Allow generous slack
  // for ragged windows — the point is the order of magnitude.
  EXPECT_LT(rounds, 200u) << "shared flush did not amortize";
  EXPECT_GT(cluster.protocol_cpu_ns(), 0u);
}

TEST(ShardedCluster, RoutesReadYourWritesAcrossGroups) {
  ShardedCluster cluster(BaseOptions(3, 32));
  cluster.Start();
  EXPECT_EQ(cluster.n_groups(), 3u);
  EXPECT_EQ(cluster.epoch(), 0u);

  bool multiple_groups = false;
  for (std::uint64_t k = 0; k < 32; ++k) {
    if (cluster.WriteGroupOf(k) != cluster.WriteGroupOf(0)) {
      multiple_groups = true;
    }
    ASSERT_EQ(cluster.Write(k, Val("v" + std::to_string(k))).status,
              OpStatus::kOk);
  }
  EXPECT_TRUE(multiple_groups) << "32 keys all routed to one group";
  for (std::uint64_t k = 0; k < 32; ++k) {
    const ReadOutcome read = cluster.Read(k);
    ASSERT_EQ(read.status, OpStatus::kOk) << k;
    EXPECT_EQ(read.value, Val("v" + std::to_string(k))) << k;
    EXPECT_EQ(cluster.ReadGroupOf(k), cluster.WriteGroupOf(k)) << k;
  }
  EXPECT_EQ(cluster.keys_awaiting_handoff(), 0u);
  cluster.Stop();
  // Stop() joins the groups but keeps them: the aggregates still read.
  EXPECT_EQ(cluster.n_groups(), 3u);
  EXPECT_GE(cluster.node_flush_rounds(), 1u);
  EXPECT_GT(cluster.frames_delivered(), 0u);
}

TEST(ShardedCluster, TwoGroupsPipelinedRegularInproc) {
  ShardedCluster cluster(BaseOptions(2, 32));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 32, 4);
  cluster.Stop();
  EXPECT_EQ(run.failures, 0);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST(ShardedCluster, TwoGroupsPipelinedRegularTcp) {
  ShardedCluster cluster(BaseOptions(2, 32));
  cluster.Start();
  const ShardedRun run = RunShardedWorkload(cluster, 32, 3);
  cluster.Stop();
  EXPECT_EQ(run.failures, 0);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// Drain-and-handoff semantics, step by step: after AddGroup, a
// migrated key's reads stay anchored to the group holding its latest
// complete write; the first write AFTER migration flips the anchor.
TEST(ShardedCluster, GroupAddAnchorsReadsUntilFirstNewWrite) {
  constexpr std::uint64_t kKeys = 64;
  ShardedCluster cluster(BaseOptions(1, kKeys));
  cluster.Start();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(cluster.Write(k, Val("old" + std::to_string(k))).status,
              OpStatus::kOk);
  }

  ASSERT_EQ(cluster.AddGroup(), 1u);
  EXPECT_EQ(cluster.n_groups(), 2u);
  EXPECT_EQ(cluster.epoch(), 1u);

  // ~half the keys now map to group 1 while every write lives in
  // group 0; with 64 keys at least one migrated key exists.
  std::uint64_t migrated = kKeys;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (cluster.WriteGroupOf(k) != cluster.ReadGroupOf(k)) {
      migrated = k;
      break;
    }
  }
  ASSERT_LT(migrated, kKeys) << "no key migrated on group add";
  EXPECT_EQ(cluster.ReadGroupOf(migrated), 0u);
  EXPECT_EQ(cluster.WriteGroupOf(migrated), 1u);
  EXPECT_GT(cluster.keys_awaiting_handoff(), 0u);

  // Anchored read: the new group has no data for this key; the value
  // must still come from group 0.
  ReadOutcome anchored = cluster.Read(migrated);
  ASSERT_EQ(anchored.status, OpStatus::kOk);
  EXPECT_EQ(anchored.value, Val("old" + std::to_string(migrated)));

  // First write post-migration goes to the new group and flips the
  // anchor — the handoff moment for this key.
  ASSERT_EQ(cluster.Write(migrated, Val("new")).status, OpStatus::kOk);
  EXPECT_EQ(cluster.ReadGroupOf(migrated), 1u);
  ReadOutcome handed_off = cluster.Read(migrated);
  ASSERT_EQ(handed_off.status, OpStatus::kOk);
  EXPECT_EQ(handed_off.value, Val("new"));

  // Non-migrated keys were never disturbed.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (k == migrated || cluster.WriteGroupOf(k) != cluster.ReadGroupOf(k)) {
      continue;
    }
    const ReadOutcome read = cluster.Read(k);
    ASSERT_EQ(read.status, OpStatus::kOk) << k;
    EXPECT_EQ(read.value, Val("old" + std::to_string(k))) << k;
  }
  cluster.Stop();
}

// End-to-end live migration: traffic flows while AddGroup installs the
// next epoch at the halfway mark, and the whole recorded history —
// spanning both epochs — passes the per-key regularity checker.
TEST(ShardedCluster, LiveGroupAddKeepsHistoryRegular) {
  constexpr std::size_t kKeys = 32;
  constexpr int kPairs = 6;
  ShardedCluster cluster(BaseOptions(1, kKeys));
  cluster.Start();

  // AddGroup blocks on the new group's startup, so it must not run on
  // a node thread (where on_progress fires): a side thread waits for
  // the halfway signal. Completions past the halfway mark hold their
  // follow-up ops until AddGroup has started, so the side thread can
  // never wake to a finished workload: AddGroup always starts with the
  // second half of the traffic still to run.
  constexpr int kHalfway = static_cast<int>(kKeys) * kPairs;  // of 2x
  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  bool add_started = false;
  bool stop = false;
  std::thread adder([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return stop || completed >= kHalfway; });
    if (stop) return;
    add_started = true;
    cv.notify_all();
    lock.unlock();
    cluster.AddGroup();
  });

  const ShardedRun run =
      RunShardedWorkload(cluster, kKeys, kPairs, [&](int done) {
        std::unique_lock<std::mutex> lock(mutex);
        completed = std::max(completed, done);
        cv.notify_all();
        cv.wait(lock, [&] { return done < kHalfway || add_started; });
      });
  {
    std::lock_guard<std::mutex> lock(mutex);
    stop = true;
    cv.notify_all();
  }
  adder.join();

  EXPECT_EQ(cluster.n_groups(), 2u);
  EXPECT_EQ(cluster.epoch(), 1u);
  cluster.Stop();

  EXPECT_EQ(run.failures, 0);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

}  // namespace
}  // namespace sbft
