// Threaded-runtime tests: the same automata that run in the simulator
// must work on real threads (mailboxes) and over TCP loopback.
#include "runtime/register_cluster.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

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

TEST(Mailbox, PushPopFifo) {
  Mailbox mailbox;
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      mailbox.Push(
          MailItem{static_cast<NodeId>(i), Frame(Bytes{(std::uint8_t)i}), {}});
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Items arrive over several parked waits, in push order.
  std::vector<NodeId> seen;
  std::deque<MailItem> batch;
  while (seen.size() < 10 && WaitAndDrain(mailbox, batch)) {
    for (const auto& item : batch) seen.push_back(item.src);
  }
  producer.join();
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], static_cast<NodeId>(i));
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
  for (int i = 0; i < 10; ++i) {
    mailbox.Push(
        MailItem{static_cast<NodeId>(i), Frame(Bytes{(std::uint8_t)i}), {}});
  }
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].src,
              static_cast<NodeId>(i));
  }
  EXPECT_EQ(mailbox.size(), 0u);  // queue fully swapped out
}

TEST(Mailbox, DrainReturnsFalseWhenClosedAndEmpty) {
  Mailbox mailbox;
  mailbox.Push(MailItem{3, Frame(Bytes{1}), {}});
  mailbox.Close();
  std::deque<MailItem> batch;
  EXPECT_TRUE(mailbox.Drain(batch));  // pending item still delivered
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(mailbox.Drain(batch));  // closed and drained
}

TEST(Mailbox, PushSignalsOnlyAParkedConsumer) {
  Mailbox mailbox;
  std::uint64_t count = 0;
  const auto signalled = [&] {
    return ::read(mailbox.wake_fd(), &count, sizeof(count)) ==
           static_cast<ssize_t>(sizeof(count));
  };
  // A busy consumer (not parked) costs the producer no wake-up.
  ASSERT_TRUE(mailbox.Push(MailItem{1, Frame(Bytes{1}), {}}));
  EXPECT_FALSE(signalled());
  // Park refuses while items are queued: the consumer must drain first.
  EXPECT_FALSE(mailbox.Park());
  std::deque<MailItem> batch;
  ASSERT_TRUE(mailbox.Drain(batch));
  // The first push to a parked consumer signals, later ones do not.
  ASSERT_TRUE(mailbox.Park());
  ASSERT_TRUE(mailbox.Push(MailItem{2, Frame(Bytes{2}), {}}));
  EXPECT_TRUE(signalled());
  ASSERT_TRUE(mailbox.Push(MailItem{3, Frame(Bytes{3}), {}}));
  EXPECT_FALSE(signalled());
  ASSERT_TRUE(mailbox.Drain(batch));
  EXPECT_EQ(batch.size(), 2u);
}

TEST(ThreadClusterTest, InprocWriteRead) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  auto write = cluster.Write(0, Val("threaded"));
  ASSERT_EQ(write.status, OpStatus::kOk);
  auto read = cluster.Read(0);
  ASSERT_EQ(read.status, OpStatus::kOk);
  EXPECT_EQ(read.value, Val("threaded"));
  cluster.Stop();
}

TEST(ThreadClusterTest, InprocManyOpsTwoClients) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 2;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

  for (int i = 0; i < 20; ++i) {
    const Value value = Val("op" + std::to_string(i));
    auto write = cluster.Write(i % 2, value);
    ASSERT_EQ(write.status, OpStatus::kOk) << i;
    auto read = cluster.Read((i + 1) % 2);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
}

TEST(ThreadClusterTest, InprocWithByzantine) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.byzantine[2] = ByzantineStrategy::kStaleReplay;
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
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
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 3;
  RegisterCluster cluster(std::move(options));
  cluster.Start();

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
  cluster.Stop();
}

TEST(ThreadClusterTest, TcpWriteRead) {
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
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
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.n_clients = 2;
  RegisterCluster cluster(std::move(options));
  cluster.Start();
  // The first client node follows the servers.
  const auto client = static_cast<NodeId>(cluster.config().n);

  for (int i = 0; i < 6; ++i) {
    if (i == 3) {
      // Posted from this (foreign) thread to each socket's owning node.
      cluster.cluster().DropConnection(client, 0);
      cluster.cluster().DropConnection(0, client);
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
  // Receive-side shaping on TCP: frames are copied out of the receive
  // buffer, delayed by the shaper, and delivered through the mailbox.
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.use_tcp = true;
  options.n_clients = 1;
  options.shaping.delay_us = 200;
  options.shaping.jitter_us = 200;
  RegisterCluster cluster(std::move(options));
  cluster.Start();
  for (int i = 0; i < 3; ++i) {
    const Value value = Val("shaped" + std::to_string(i));
    ASSERT_EQ(cluster.Write(0, value).status, OpStatus::kOk) << i;
    auto read = cluster.Read(0);
    ASSERT_EQ(read.status, OpStatus::kOk) << i;
    EXPECT_EQ(read.value, value) << i;
  }
  cluster.Stop();
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
  RegisterCluster::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.n_clients = 1;
  RegisterCluster cluster(std::move(options));
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
