// Threaded-runtime tests: the same automata that run in the simulator
// must work on real threads, over TCP loopback.
#include "runtime/sharded_cluster.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/server.hpp"
#include "runtime/mailbox.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

/// Blocks the way a parked node loop does: park, wait for the wake fd,
/// and drain once there is something to drain (or the mailbox closed).
bool WaitAndDrain(Mailbox& mailbox, std::deque<MailItem>& batch) {
  while (mailbox.Park()) {
    pollfd wake{mailbox.wake_fd(), POLLIN, 0};
    ::poll(&wake, 1, -1);
    mailbox.ConsumeWake();
  }
  return mailbox.Drain(batch);
}

/// A task that appends `index` to `seen` when run.
MailItem Record(std::vector<int>& seen, int index) {
  return [&seen, index] { seen.push_back(index); };
}

/// Runs every drained task, in order.
void RunAll(std::deque<MailItem>& batch) {
  for (auto& task : batch) task();
}

TEST(Mailbox, PushPopFifo) {
  Mailbox mailbox;
  std::vector<int> seen;  // written only by the consumer's tasks
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      mailbox.Push(Record(seen, i));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Items arrive over several parked waits, in push order.
  std::deque<MailItem> batch;
  while (seen.size() < 10 && WaitAndDrain(mailbox, batch)) RunAll(batch);
  producer.join();
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
}

TEST(Mailbox, CloseUnblocksConsumer) {
  Mailbox mailbox;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::deque<MailItem> batch;
    EXPECT_FALSE(WaitAndDrain(mailbox, batch));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  mailbox.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(Mailbox, PushAfterCloseRejected) {
  Mailbox mailbox;
  mailbox.Close();
  EXPECT_FALSE(mailbox.Push(MailItem{}));
}

TEST(Mailbox, DrainSwapsWholeQueueInOrder) {
  Mailbox mailbox;
  std::vector<int> seen;
  for (int i = 0; i < 10; ++i) mailbox.Push(Record(seen, i));
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  ASSERT_EQ(batch.size(), 10u);
  RunAll(batch);
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
  EXPECT_EQ(mailbox.size(), 0u);  // queue fully swapped out
}

TEST(Mailbox, DrainReturnsFalseWhenClosedAndEmpty) {
  Mailbox mailbox;
  std::vector<int> seen;
  mailbox.Push(Record(seen, 3));
  mailbox.Close();
  std::deque<MailItem> batch;
  EXPECT_TRUE(mailbox.Drain(batch));  // pending item still delivered
  EXPECT_EQ(batch.size(), 1u);
  RunAll(batch);
  EXPECT_EQ(seen, std::vector<int>{3});
  EXPECT_FALSE(mailbox.Drain(batch));  // closed and drained
}

TEST(Mailbox, PushSignalsOnlyAParkedConsumer) {
  Mailbox mailbox;
  std::uint64_t count = 0;
  const auto signalled = [&] {
    return ::read(mailbox.wake_fd(), &count, sizeof(count)) ==
           static_cast<ssize_t>(sizeof(count));
  };
  std::vector<int> seen;
  // A busy consumer (not parked) costs the producer no wake-up.
  ASSERT_TRUE(mailbox.Push(Record(seen, 1)));
  EXPECT_FALSE(signalled());
  // Park refuses while items are queued: the consumer must drain first.
  EXPECT_FALSE(mailbox.Park());
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  RunAll(batch);
  // The first push to a parked consumer signals, later ones do not.
  ASSERT_TRUE(mailbox.Park());
  ASSERT_TRUE(mailbox.Push(Record(seen, 2)));
  EXPECT_TRUE(signalled());
  ASSERT_TRUE(mailbox.Push(Record(seen, 3)));
  EXPECT_FALSE(signalled());
  ASSERT_TRUE(mailbox.Drain(batch));
  EXPECT_EQ(batch.size(), 2u);
  RunAll(batch);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

/// One group of six servers: the single-group threaded deployment.
ShardedCluster::Options OneGroup() {
  ShardedCluster::Options options;
  options.group.config = ProtocolConfig::ForServers(6);
  return options;
}

/// Several RegisterClients on ONE register, which the serving path (one
/// client per key) cannot express: six RegisterServers and `n_clients`
/// RegisterClients, each on its own node of one ThreadCluster.
/// Write/Read run the op on the client's node thread and block on it,
/// reporting kFailed after 10 s like ShardedCluster's.
class SharedRegisterRig {
 public:
  explicit SharedRegisterRig(std::size_t n_clients) {
    const ProtocolConfig config = ProtocolConfig::ForServers(6);
    std::vector<NodeId> servers;
    for (std::size_t i = 0; i < config.n; ++i) {
      servers.push_back(
          cluster_.AddNode(std::make_unique<RegisterServer>(config, i)));
    }
    for (std::size_t c = 0; c < n_clients; ++c) {
      auto client = std::make_unique<RegisterClient>(
          config, servers, static_cast<ClientId>(config.n + c));
      clients_.push_back(client.get());
      nodes_.push_back(cluster_.AddNode(std::move(client)));
    }
    cluster_.Start();
  }

  WriteOutcome Write(std::size_t c, Value value) {
    return Run<WriteOutcome>(c, [value = std::move(value)](
                                    RegisterClient& client,
                                    WriteCallback done) mutable {
      client.StartWrite(std::move(value), std::move(done));
    });
  }
  ReadOutcome Read(std::size_t c) {
    return Run<ReadOutcome>(c, [](RegisterClient& client, ReadCallback done) {
      client.StartRead(std::move(done));
    });
  }

 private:
  template <typename Outcome, typename Op>
  Outcome Run(std::size_t c, Op op) {
    auto done = std::make_shared<std::promise<Outcome>>();
    auto future = done->get_future();
    cluster_.PostToNode(nodes_[c], [client = clients_[c], op = std::move(op),
                                    done]() mutable {
      op(*client, [done](const Outcome& outcome) { done->set_value(outcome); });
    });
    if (future.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      return Outcome{};  // kFailed
    }
    return future.get();
  }

  ThreadCluster cluster_;
  std::vector<RegisterClient*> clients_;  // owned by cluster_
  std::vector<NodeId> nodes_;
};

// The Inproc* names are kept so test ids stay stable; these tests run
// over TCP loopback like every other runtime test.
TEST(ThreadClusterTest, InprocWriteRead) {
  ShardedCluster cluster(OneGroup());
  cluster.Start();

  auto write = cluster.Write(0, Val("threaded"));
  ASSERT_EQ(write.status, OpStatus::kOk);
  auto read = cluster.Read(0);
  ASSERT_EQ(read.status, OpStatus::kOk);
  EXPECT_EQ(read.value, Val("threaded"));
  cluster.Stop();
}

TEST(ThreadClusterTest, InprocManyOpsTwoClients) {
  SharedRegisterRig cluster(2);

  for (int i = 0; i < 20; ++i) {
    const Value value = Val("op" + std::to_string(i));
    auto write = cluster.Write(i % 2, value);
    ASSERT_EQ(write.status, OpStatus::kOk) << i;
    auto read = cluster.Read((i + 1) % 2);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
}

TEST(ThreadClusterTest, InprocWithByzantine) {
  ShardedCluster::Options options = OneGroup();
  options.group.byzantine[2] = ByzantineStrategy::kStaleReplay;
  ShardedCluster cluster(options);
  cluster.Start();

  for (int i = 0; i < 5; ++i) {
    const Value value = Val("byz" + std::to_string(i));
    ASSERT_EQ(cluster.Write(0, value).status, OpStatus::kOk);
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk);
    EXPECT_EQ(read.value, value);
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, ConcurrentClientsFromThreads) {
  SharedRegisterRig cluster(3);

  std::atomic<int> ok{0};
  std::vector<std::thread> drivers;
  for (int c = 0; c < 3; ++c) {
    drivers.emplace_back([&, c] {
      for (int i = 0; i < 10; ++i) {
        const Value value =
            Val("c" + std::to_string(c) + "#" + std::to_string(i));
        if (cluster.Write(static_cast<std::size_t>(c), value).status ==
            OpStatus::kOk) {
          ok.fetch_add(1);
        }
        auto read = cluster.Read(static_cast<std::size_t>(c));
        if (read.status == OpStatus::kOk) ok.fetch_add(1);
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  // Concurrency may fail a few writes through retry exhaustion, but the
  // vast majority of operations must succeed.
  EXPECT_GE(ok.load(), 50);
}

TEST(ThreadClusterTest, TcpWriteRead) {
  ShardedCluster cluster(OneGroup());
  cluster.Start();

  for (int i = 0; i < 5; ++i) {
    const Value value = Val("tcp" + std::to_string(i));
    auto write = cluster.Write(0, value);
    ASSERT_EQ(write.status, OpStatus::kOk) << i;
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, TcpDroppedConnectionReconnects) {
  ShardedCluster::Options options = OneGroup();
  options.group.n_clients = 2;
  ShardedCluster cluster(options);
  cluster.Start();
  // The mux client node follows the servers.
  const auto client = static_cast<NodeId>(options.group.config.n);

  for (int i = 0; i < 6; ++i) {
    if (i == 3) {
      // Posted from this (foreign) thread to each socket's owning node.
      cluster.group(0).cluster().DropConnection(client, 0);
      cluster.group(0).cluster().DropConnection(0, client);
    }
    const Value value = Val("rc" + std::to_string(i));
    ASSERT_EQ(cluster.Write(i % 2, value).status, OpStatus::kOk) << i;
    auto read = cluster.Read(i % 2);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, TcpWithShapedLinks) {
  // Receive-side shaping: frames are copied out of the receive buffer
  // and held in the receiving node's loop until their delay runs out.
  // Every hop of a phase's round trip waits at least delay_us, so a
  // write (FLUSH, GET_TS and WRITE round trips) takes at least 6 delays
  // and a read (FLUSH and READ) at least 4. The delay is long enough
  // that an unshaped op on loopback cannot meet those bounds.
  constexpr std::chrono::microseconds kDelay{2000};
  ShardedCluster::Options options = OneGroup();
  options.group.shaping.delay_us = static_cast<std::uint64_t>(kDelay.count());
  options.group.shaping.jitter_us = 500;
  ShardedCluster cluster(options);
  cluster.Start();
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < 3; ++i) {
    const Value value = Val("shaped" + std::to_string(i));
    const auto write_start = Clock::now();
    ASSERT_EQ(cluster.Write(0, value).status, OpStatus::kOk) << i;
    const auto read_start = Clock::now();
    auto read = cluster.Read(0);
    const auto read_end = Clock::now();
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
    EXPECT_GE(read_start - write_start, 6 * kDelay) << i;
    EXPECT_GE(read_end - read_start, 4 * kDelay) << i;
  }
  cluster.Stop();
}

/// Threads of this process, from /proc/self/status (-1 if unreadable).
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(ThreadClusterTest, ShapedDeploymentRunsOnlyNodeThreads) {
  // Shaped frames wait in their receiving node's loop, so every thread
  // a shaped deployment starts is a node thread.
  ShardedCluster::Options options = OneGroup();
  options.n_groups = 2;
  options.group.shaping.delay_us = 200;
  options.group.shaping.jitter_us = 100;
  ShardedCluster cluster(options);
  std::size_t nodes = 0;
  for (std::size_t g = 0; g < cluster.n_groups(); ++g) {
    nodes += cluster.group(g).cluster().node_count();
  }
  ASSERT_EQ(nodes, 2 * (options.group.config.n + 1));
  // A sanitizer runtime may start a helper thread along with the
  // process's first thread (TSan does): let it do so before counting.
  std::thread([] {}).join();
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  cluster.Start();
  EXPECT_EQ(ProcessThreads() - before, static_cast<int>(nodes));
  ASSERT_EQ(cluster.Write(0, Val("shaped")).status, OpStatus::kOk);
  cluster.Stop();
  EXPECT_EQ(ProcessThreads(), before);
}

/// Sends numbered frames stamped with their send time, and records the
/// frames it receives with their arrival time.
class StampProbe final : public Automaton {
 public:
  struct Arrival {
    std::uint64_t seq = 0;
    std::uint64_t sent_us = 0;
    std::uint64_t received_us = 0;
  };

  void OnStart(IEndpoint& endpoint) override { endpoint_ = &endpoint; }
  void OnFrame(NodeId, BytesView frame, IEndpoint& endpoint) override {
    Arrival arrival;
    std::memcpy(&arrival.seq, frame.data(), sizeof(arrival.seq));
    std::memcpy(&arrival.sent_us, frame.data() + sizeof(arrival.seq),
                sizeof(arrival.sent_us));
    arrival.received_us = endpoint.Now();
    arrivals.push_back(arrival);
  }
  void OnTimer(int, IEndpoint&) override {}

  /// Node thread only.
  void SendBurst(NodeId dst, std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t seq = first; seq < first + count; ++seq) {
      const std::uint64_t sent_us = endpoint_->Now();
      Bytes frame(sizeof(seq) + sizeof(sent_us));
      std::memcpy(frame.data(), &seq, sizeof(seq));
      std::memcpy(frame.data() + sizeof(seq), &sent_us, sizeof(sent_us));
      endpoint_->Send(dst, std::move(frame));
    }
  }

  /// Node thread only, or after the cluster stopped.
  std::vector<Arrival> arrivals;

 private:
  IEndpoint* endpoint_ = nullptr;
};

TEST(ThreadClusterTest, DelayOnlyShapingKeepsLinkFifo) {
  // With no jitter every frame waits exactly delay_us after it is read,
  // so a link's frames leave the release heap in the order TCP brought
  // them, however many are held across wakeups.
  constexpr std::uint64_t kDelayUs = 20'000;
  constexpr std::uint64_t kBursts = 8;
  constexpr std::uint64_t kBurst = 25;
  ThreadCluster::Options options;
  options.shaping.delay_us = kDelayUs;
  ThreadCluster cluster(options);
  auto owned_sender = std::make_unique<StampProbe>();
  auto owned_receiver = std::make_unique<StampProbe>();
  StampProbe* sender = owned_sender.get();
  StampProbe* receiver = owned_receiver.get();
  const NodeId from = cluster.AddNode(std::move(owned_sender));
  const NodeId to = cluster.AddNode(std::move(owned_receiver));
  cluster.Start();
  // Bursts 2 ms apart reach the receiver over several wakeups, while
  // earlier ones are still held.
  for (std::uint64_t b = 0; b < kBursts; ++b) {
    cluster.PostToNode(from, [sender, to, b] {
      sender->SendBurst(to, b * kBurst, kBurst);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::vector<StampProbe::Arrival> arrivals;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrivals.size() < kBursts * kBurst &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    cluster.RunOnNode(to, [&] { arrivals = receiver->arrivals; });
  }
  ASSERT_EQ(arrivals.size(), kBursts * kBurst);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].seq, i);
    EXPECT_GE(arrivals[i].received_us - arrivals[i].sent_us, kDelayUs) << i;
  }
  // Stop with a last burst in flight: the frames the receiver already
  // holds are dropped with the cluster (clean under ASan), none
  // delivered early.
  cluster.RunOnNode(from, [sender, to] {
    sender->SendBurst(to, kBursts * kBurst, kBurst);
  });
  cluster.RunOnNode(from, [] {});  // the burst's flush has run
  cluster.Stop();
  EXPECT_EQ(receiver->arrivals.size(), kBursts * kBurst);
}

/// Arms one timer per request and reports how late it fired.
class TimerProbe final : public Automaton {
 public:
  using Lateness = std::chrono::steady_clock::duration;

  void OnStart(IEndpoint& endpoint) override { endpoint_ = &endpoint; }
  void OnFrame(NodeId, BytesView, IEndpoint&) override {}
  void OnTimer(int, IEndpoint&) override {
    fired_->set_value(std::chrono::steady_clock::now() - due_);
  }

  /// Node thread only.
  void Arm(std::chrono::microseconds delay, std::promise<Lateness>* fired) {
    fired_ = fired;
    due_ = std::chrono::steady_clock::now() + delay;
    endpoint_->SetTimer(static_cast<VirtualTime>(delay.count()), 0);
  }

 private:
  IEndpoint* endpoint_ = nullptr;
  std::promise<Lateness>* fired_ = nullptr;
  std::chrono::steady_clock::time_point due_;
};

TEST(ThreadClusterTest, NodeTimersFireWithMicrosecondResolution) {
  // The node loop waits with a microsecond timeout: a millisecond one
  // would round every 200 us batch-window timer up to at least 1 ms.
  ThreadCluster cluster;
  auto owned = std::make_unique<TimerProbe>();
  TimerProbe* probe = owned.get();
  const NodeId node = cluster.AddNode(std::move(owned));
  cluster.Start();
  std::vector<TimerProbe::Lateness> fired_after;
  for (int i = 0; i < 50; ++i) {
    std::promise<TimerProbe::Lateness> fired;
    auto future = fired.get_future();
    cluster.PostToNode(node, [probe, &fired] {
      probe->Arm(std::chrono::microseconds(200), &fired);
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
              std::future_status::ready);
    fired_after.push_back(std::chrono::microseconds(200) + future.get());
  }
  cluster.Stop();
  std::nth_element(fired_after.begin(), fired_after.begin() + 25,
                   fired_after.end());
  EXPECT_LT(fired_after[25], std::chrono::milliseconds(1));
}

TEST(ThreadClusterTest, AsyncApiCompletesOnNodeThread) {
  ShardedCluster cluster(OneGroup());
  cluster.Start();

  std::promise<ReadOutcome> done;
  cluster.AsyncWrite(0, Val("async"), [&](const WriteOutcome& write) {
    EXPECT_EQ(write.status, OpStatus::kOk);
    // Issue the dependent read from the completion callback — the
    // closed-loop pattern the bench generator uses.
    cluster.AsyncRead(0, [&](const ReadOutcome& read) {
      done.set_value(read);
    });
  });
  auto future = done.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto read = future.get();
  EXPECT_EQ(read.status, OpStatus::kOk);
  EXPECT_EQ(read.value, Val("async"));
  cluster.Stop();
}

}  // namespace
}  // namespace sbft
