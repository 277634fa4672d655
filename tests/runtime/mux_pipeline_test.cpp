// Pipelined client multiplexing: many logical clients, each its own
// register behind the mux, share one client node and one TCP
// connection per server. Frames of many registers coalesce into shared
// MuxBatch rounds with one node-level FLUSH per window; each logical
// client must still see ITS operations complete in issue order with
// read-your-writes, and the recorded history must pass the per-key
// regular-register checker.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "load/stabilization.hpp"
#include "runtime/register_cluster.hpp"
#include "spec/history.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

struct PipelineRun {
  struct PerClient {
    std::vector<std::string> reads;  // value seen by read i
    int completed_pairs = 0;
  };
  std::vector<PerClient> state;
  int failures = 0;
  History history;  // every op, stamped with wall-clock microseconds
  std::uint64_t node_flush_rounds = 0;  // read after the cluster stopped
};

// Drives `n_clients` logical clients, each running `pairs` write+read
// pairs as an async closed loop (next op issued from the completion
// callback). All callbacks run on the mux client node's thread. Also
// records the run as a History (OpRecord::client = logical client) so
// callers can run the per-key regularity checker over it.
PipelineRun RunPipelinedWorkload(RegisterCluster::Options options,
                                 std::size_t n_clients, int pairs) {
  options.n_clients = n_clients;
  RegisterCluster cluster(std::move(options));
  EXPECT_TRUE(cluster.multiplexed());
  cluster.Start();
  const auto start = std::chrono::steady_clock::now();
  auto now_us = [start] {
    return static_cast<VirtualTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  PipelineRun run;
  run.state.resize(n_clients);
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t done_clients = 0;
  std::atomic<int> failures{0};

  // One mutually recursive pair of injectors per logical client.
  std::function<void(std::size_t, int)> inject_write = [&](std::size_t c,
                                                           int i) {
    const std::string text = "c" + std::to_string(c) + "#" + std::to_string(i);
    OpRecord write_rec;
    write_rec.kind = OpRecord::Kind::kWrite;
    write_rec.client = static_cast<std::uint32_t>(c);
    write_rec.invoked_at = now_us();
    write_rec.value = Val(text);
    cluster.AsyncWrite(c, Val(text), [&, c, i, text,
                                      write_rec](const WriteOutcome& write) {
      if (write.status != OpStatus::kOk) failures.fetch_add(1);
      {
        std::lock_guard<std::mutex> lock(mutex);
        OpRecord done = write_rec;
        done.returned_at = now_us();
        done.result = write.status == OpStatus::kOk ? OpRecord::Result::kOk
                                                    : OpRecord::Result::kFailed;
        run.history.Add(std::move(done));
      }
      OpRecord read_rec;
      read_rec.kind = OpRecord::Kind::kRead;
      read_rec.client = static_cast<std::uint32_t>(c);
      read_rec.invoked_at = now_us();
      cluster.AsyncRead(c, [&, c, i, text, read_rec](const ReadOutcome& read) {
        if (read.status != OpStatus::kOk) failures.fetch_add(1);
        {
          std::lock_guard<std::mutex> lock(mutex);
          OpRecord done = read_rec;
          done.returned_at = now_us();
          done.result = read.status == OpStatus::kOk
                            ? OpRecord::Result::kOk
                            : OpRecord::Result::kAborted;
          done.value = read.value;
          run.history.Add(std::move(done));
          run.state[c].reads.emplace_back(read.value.begin(),
                                          read.value.end());
          run.state[c].completed_pairs = i + 1;
        }
        if (i + 1 < pairs) {
          inject_write(c, i + 1);
          return;
        }
        std::lock_guard<std::mutex> lock(mutex);
        ++done_clients;
        done_cv.notify_one();
      });
    });
  };
  for (std::size_t c = 0; c < n_clients; ++c) inject_write(c, 0);

  {
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(done_cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return done_clients == n_clients;
    })) << "pipelined clients did not finish";
  }
  cluster.Stop();
  run.failures = failures.load();
  run.node_flush_rounds = cluster.node_flush_rounds();
  return run;
}

// Read i follows write i with nothing in between on a single-writer
// register, so it must return exactly value i — the per-client ordering
// guarantee across the shared connection and shared rounds.
void ExpectPerClientOrdering(const PipelineRun& run, std::size_t n_clients,
                             int pairs) {
  EXPECT_EQ(run.failures, 0);
  for (std::size_t c = 0; c < n_clients; ++c) {
    ASSERT_EQ(run.state[c].completed_pairs, pairs) << "client " << c;
    ASSERT_EQ(run.state[c].reads.size(), static_cast<std::size_t>(pairs));
    for (int i = 0; i < pairs; ++i) {
      EXPECT_EQ(run.state[c].reads[static_cast<std::size_t>(i)],
                "c" + std::to_string(c) + "#" + std::to_string(i))
          << "client " << c << " op " << i;
    }
  }
}

TEST(MuxPipeline, SixtyFourClientsPreservePerClientOrdering) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.multiplex = true;
  const PipelineRun run = RunPipelinedWorkload(std::move(options), 64, 5);
  ExpectPerClientOrdering(run, 64, 5);
}

// Synchronous ops, one at a time: each starts in its own mailbox drain,
// a window of one.
TEST(MuxPipeline, InprocMultiplexedClientsReadTheirWrites) {
  constexpr std::size_t kClients = 16;
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.multiplex = true;
  options.n_clients = kClients;
  RegisterCluster cluster(std::move(options));
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
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.multiplex = true;
  const PipelineRun run = RunPipelinedWorkload(std::move(options), 64, 5);
  ExpectPerClientOrdering(run, 64, 5);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// The mailbox transport must give the identical guarantee (the mux
// layer, not the socket, provides per-client ordering).
TEST(MuxPipeline, BatchedInprocClientsOrderedAndRegular) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.multiplex = true;
  const PipelineRun run = RunPipelinedWorkload(std::move(options), 32, 4);
  ExpectPerClientOrdering(run, 32, 4);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

// ---- Shared FLUSH rounds ---------------------------------------------

// The pipelined workloads again, also demanding that their FLUSH phases
// went out as node-level NodeFlush rounds on both transports.
TEST(MuxPipeline, SharedFlushTcpClientsOrderedAndRegular) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.multiplex = true;
  const PipelineRun run = RunPipelinedWorkload(std::move(options), 64, 5);
  ExpectPerClientOrdering(run, 64, 5);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GE(run.node_flush_rounds, 1u);
}

TEST(MuxPipeline, SharedFlushInprocClientsOrderedAndRegular) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.multiplex = true;
  const PipelineRun run = RunPipelinedWorkload(std::move(options), 32, 4);
  ExpectPerClientOrdering(run, 32, 4);
  const CheckReport report = load::CheckRegularPerKey(run.history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_GE(run.node_flush_rounds, 1u);
}

// Amortization on the threaded runtime: 32 clients x 4 pairs = 256 ops
// need 256 FLUSH phases, but shared windows must pack them into far
// fewer NodeFlush rounds. Measured after Stop() so the counter is
// quiescent.
TEST(MuxPipeline, SharedFlushAmortizesNodeFlushRounds) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.multiplex = true;
  options.n_clients = 32;
  RegisterCluster cluster(std::move(options));
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
  EXPECT_GT(cluster.cluster().protocol_cpu_ns(), 0u);
}

}  // namespace
}  // namespace sbft
