// TcpBus unit tests: framing, lazy connect, bidirectional traffic,
// queue-and-flush batching, torn-frame reassembly, backlogged sends,
// malformed input, clean shutdown, and error degradation.
//
// The test thread plays every node's loop. Each node has its own epoll
// set, and Loops::Pump(node) runs one wakeup of that node the way
// ThreadCluster's NodeLoop does: socket events first, then delivery.
// Nothing else drives a socket, so a test controls exactly which
// node's loop runs when.
#include "runtime/tcp.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

namespace sbft {
namespace {

struct Item {
  NodeId src;
  NodeId dst;
  Bytes frame;
};

class Loops {
 public:
  explicit Loops(std::size_t nodes) {
    for (NodeId id = 0; id < nodes; ++id) {
      epoll_fds_.push_back(::epoll_create1(EPOLL_CLOEXEC));
      ports_.push_back(bus_.AddNode(id, epoll_fds_.back()));
    }
    bus_.Start();
  }
  ~Loops() {
    bus_.Stop();
    for (const int fd : epoll_fds_) ::close(fd);
  }

  TcpBus& bus() { return bus_; }
  [[nodiscard]] std::uint16_t port(NodeId node) const { return ports_[node]; }
  [[nodiscard]] const std::vector<Item>& received() const { return received_; }

  /// One wakeup of `node`'s loop: wait up to `timeout_ms` for socket
  /// events, handle them, then deliver every complete frame.
  void Pump(NodeId node, int timeout_ms = 0) {
    std::array<epoll_event, 16> events{};
    const int n = ::epoll_wait(epoll_fds_[node], events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      bus_.OnEvent(events[static_cast<std::size_t>(i)].data.ptr,
                   events[static_cast<std::size_t>(i)].events);
    }
    bus_.Deliver(node, [&](NodeId src, BytesView frame) {
      received_.push_back({src, node, ToBytes(frame)});
    });
  }

  /// Pump every node in turn until `count` frames arrived (false after
  /// five seconds).
  bool PumpUntil(std::size_t count) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (received_.size() < count &&
           std::chrono::steady_clock::now() < deadline) {
      for (NodeId id = 0; id < epoll_fds_.size(); ++id) Pump(id, 1);
    }
    return received_.size() >= count;
  }

 private:
  TcpBus bus_;
  std::vector<int> epoll_fds_;
  std::vector<std::uint16_t> ports_;
  std::vector<Item> received_;
};

/// A plain blocking client socket connected to a node's listener.
int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void StoreLe32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// Appends one hand-framed [len][src][payload] frame.
void AppendFrame(Bytes& wire, std::uint32_t src, const Bytes& payload) {
  std::uint8_t header[8];
  StoreLe32(header, static_cast<std::uint32_t>(payload.size()));
  StoreLe32(header + 4, src);
  wire.insert(wire.end(), header, header + 8);
  wire.insert(wire.end(), payload.begin(), payload.end());
}

TEST(TcpBus, RoundTripOneFrame) {
  Loops loops(2);
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{1, 2, 3}));
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(1));
  EXPECT_EQ(loops.received()[0].src, 0u);
  EXPECT_EQ(loops.received()[0].dst, 1u);
  EXPECT_EQ(loops.received()[0].frame, (Bytes{1, 2, 3}));
}

TEST(TcpBus, ManyFramesPreserveOrderPerConnection) {
  Loops loops(2);
  // Queue the whole burst, then flush once: the frames coalesce into
  // very few send calls but must still arrive in order.
  for (std::uint8_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{i}));
  }
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(50));
  for (std::uint8_t i = 0; i < 50; ++i) {
    EXPECT_EQ(loops.received()[i].frame, Bytes{i});  // TCP is FIFO
  }
}

TEST(TcpBus, BidirectionalAndEmptyFrames) {
  Loops loops(2);
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{}));
  ASSERT_TRUE(loops.bus().Send(1, 0, Bytes{9}));
  loops.bus().Flush(0);
  loops.bus().Flush(1);
  ASSERT_TRUE(loops.PumpUntil(2));
}

TEST(TcpBus, FlushCoalescesInterleavedDestinations) {
  Loops loops(3);
  for (std::uint8_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(loops.bus().Send(0, 1 + (i % 2), Bytes{i}));
  }
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(20));
  // Per-destination order must hold even though sends interleaved.
  std::vector<std::uint8_t> to1, to2;
  for (const auto& item : loops.received()) {
    (item.dst == 1 ? to1 : to2).push_back(item.frame.at(0));
  }
  ASSERT_EQ(to1.size(), 10u);
  ASSERT_EQ(to2.size(), 10u);
  EXPECT_TRUE(std::is_sorted(to1.begin(), to1.end()));
  EXPECT_TRUE(std::is_sorted(to2.begin(), to2.end()));
}

TEST(TcpBus, AllPairsMesh) {
  // Every node both accepts (in its own epoll set) and connects out.
  constexpr std::size_t kNodes = 4;
  Loops loops(kNodes);
  for (NodeId src = 0; src < kNodes; ++src) {
    for (NodeId dst = 0; dst < kNodes; ++dst) {
      if (src == dst) continue;
      const Bytes frame{static_cast<std::uint8_t>(src),
                        static_cast<std::uint8_t>(dst)};
      ASSERT_TRUE(loops.bus().Send(src, dst, frame));
    }
    loops.bus().Flush(src);
  }
  ASSERT_TRUE(loops.PumpUntil(kNodes * (kNodes - 1)));
  std::set<std::pair<NodeId, NodeId>> pairs;
  for (const auto& item : loops.received()) {
    EXPECT_EQ(item.frame, (Bytes{static_cast<std::uint8_t>(item.src),
                                 static_cast<std::uint8_t>(item.dst)}));
    pairs.insert({item.src, item.dst});
  }
  EXPECT_EQ(pairs.size(), kNodes * (kNodes - 1));
}

TEST(TcpBus, SendToUnknownNodeFails) {
  Loops loops(1);
  EXPECT_FALSE(loops.bus().Send(0, 99, Bytes{1}));
}

TEST(TcpBus, SendAfterStopFails) {
  Loops loops(2);
  loops.bus().Stop();
  EXPECT_FALSE(loops.bus().Send(0, 1, Bytes{1}));
}

TEST(TcpBus, StopIsIdempotent) {
  Loops loops(1);
  loops.bus().Stop();
  loops.bus().Stop();  // must not hang or crash (and ~Loops stops again)
}

TEST(TcpBus, DroppedConnectionDegradesAndReconnects) {
  Loops loops(2);
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{1}));
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(1));

  loops.bus().DropConnection(0, 1);
  EXPECT_EQ(loops.bus().connections_dropped(), 1u);

  // The next send lazily reconnects; traffic resumes without a crash.
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{2}));
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(2));
  EXPECT_EQ(loops.received()[1].frame, Bytes{2});
}

TEST(TcpBus, StopWithQueuedUnflushedWrites) {
  Loops loops(2);
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{i}));
  }
  // No Flush: Stop must tear down cleanly with bytes still queued.
  loops.bus().Stop();
}

TEST(TcpBus, TornFramesReassembleAcrossRecvBoundaries) {
  Loops loops(1);
  // Hand-framed wire bytes: three frames from "node 7", the middle one
  // empty, the last one 1000 bytes.
  Bytes wire;
  AppendFrame(wire, 7, Bytes{1, 2, 3});
  AppendFrame(wire, 7, Bytes{});
  Bytes big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  AppendFrame(wire, 7, big);

  const int fd = ConnectRaw(loops.port(0));
  ASSERT_GE(fd, 0);
  // Dribble the stream in 7-byte chunks, running the receiver's loop
  // between them, so headers and payloads tear across recv calls in
  // every possible alignment.
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    const std::size_t len = std::min<std::size_t>(7, wire.size() - off);
    ASSERT_EQ(::send(fd, wire.data() + off, len, 0),
              static_cast<ssize_t>(len));
    loops.Pump(0, 1);
  }
  ASSERT_TRUE(loops.PumpUntil(3));
  ASSERT_EQ(loops.received().size(), 3u);
  for (const auto& item : loops.received()) EXPECT_EQ(item.src, 7u);
  EXPECT_EQ(loops.received()[0].frame, (Bytes{1, 2, 3}));
  EXPECT_TRUE(loops.received()[1].frame.empty());
  EXPECT_EQ(loops.received()[2].frame, big);
  ::close(fd);
}

TEST(TcpBus, OversizedLengthHeaderDropsOnlyThatConnection) {
  Loops loops(2);
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{1}));
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(1));

  const int fd = ConnectRaw(loops.port(1));
  ASSERT_GE(fd, 0);
  std::uint8_t header[8];
  StoreLe32(header, 0xffffffffu);  // length far beyond the 16 MB cap
  StoreLe32(header + 4, 3);
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 8);

  // Node 1 closes the malformed connection: its peer sees EOF or reset.
  bool closed = false;
  for (int round = 0; round < 5000 && !closed; ++round) {
    loops.Pump(1, 1);
    char buffer[16];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    closed = n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }
  EXPECT_TRUE(closed);

  // Node 0's connection to node 1 is untouched: no frame from the bad
  // peer, no reconnect, and traffic keeps flowing on it.
  ASSERT_TRUE(loops.bus().Send(0, 1, Bytes{2}));
  loops.bus().Flush(0);
  ASSERT_TRUE(loops.PumpUntil(2));
  ASSERT_EQ(loops.received().size(), 2u);
  EXPECT_EQ(loops.received()[1].src, 0u);
  EXPECT_EQ(loops.received()[1].frame, Bytes{2});
  EXPECT_EQ(loops.bus().connections_dropped(), 0u);
  ::close(fd);
}

TEST(TcpBus, BackloggedSendContinuedBySendersOwnLoop) {
  Loops loops(2);
  // 256 x 64 KB = 16 MB queued in one go, far more than the socket
  // buffers hold while the receiver has not read anything yet.
  constexpr std::uint32_t kFrames = 256;
  Bytes payload(std::size_t{64} << 10, 0xab);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    std::memcpy(payload.data(), &i, sizeof(i));
    ASSERT_TRUE(loops.bus().Send(0, 1, payload));
  }
  loops.bus().Flush(0);  // fills the socket and arms EPOLLOUT

  // With the sender's loop paused, the receiver drains what is on the
  // wire and then starves: the rest waits in the sender's queue.
  for (int round = 0; round < 200; ++round) loops.Pump(1, 1);
  EXPECT_LT(loops.received().size(), kFrames);

  // Running the sender's loop (no further Flush) continues the backlog.
  ASSERT_TRUE(loops.PumpUntil(kFrames));
  ASSERT_EQ(loops.received().size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const Bytes& frame = loops.received()[i].frame;
    ASSERT_EQ(frame.size(), payload.size());
    std::uint32_t sequence = 0;
    std::memcpy(&sequence, frame.data(), sizeof(sequence));
    ASSERT_EQ(sequence, i) << "frame order broke at " << i;
  }
}

TEST(TcpBus, StopWhileBackpressured) {
  Loops loops(2);
  Bytes payload(std::size_t{256} << 10, 0xcd);
  for (int i = 0; i < 64; ++i) {
    if (!loops.bus().Send(0, 1, payload)) break;
    loops.bus().Flush(0);
  }
  // Stop with megabytes still queued behind a receiver that never read:
  // must not hang, crash, or leak (ASan/TSan runs cover the latter).
  loops.bus().Stop();
}

}  // namespace
}  // namespace sbft
