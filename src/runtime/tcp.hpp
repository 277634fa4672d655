// TCP transport on 127.0.0.1 for the threaded runtime. The transport
// has no thread of its own: every socket belongs to one node and sits
// in that node's epoll set, and the node's own loop (ThreadCluster's
// NodeLoop) drives it, so frames reach a receiver on the thread that
// owns the receiver.
//
// Every node owns a listening socket on an ephemeral port; peers
// connect lazily on first send and keep the connection. Frames are
// length-prefixed: [u32 length][u32 sender id][payload]. All sockets
// are non-blocking and TCP_NODELAY; batching happens at the
// application layer:
//
//   * Send() only APPENDS the framed bytes to the (src, dst)
//     connection's output buffer and marks it dirty for `src`.
//     Flush(src) walks the dirty list and writes each connection's
//     buffer with one send — a quorum broadcast or a batch of pipelined
//     replies coalesces into one syscall per connection. The node loop
//     calls Flush once per wakeup. The buffer belongs to the
//     connection, so its capacity never leaks into the frame pool that
//     automata encode from.
//   * When the socket buffer fills (EAGAIN / partial write), EPOLLOUT
//     is armed in the sender's epoll set and the sender's own loop
//     continues the flush from OnEvent, preserving frame order.
//   * Reads take two steps per wakeup. OnEvent reads a readable
//     connection into its receive buffer until EAGAIN or a short read
//     (transport work); Deliver then hands every complete frame to the
//     receiver as a view into that buffer — no copy, no queue.
//
// Error handling degrades instead of aborting: a connect failure or an
// EPIPE/ECONNRESET on send marks the connection dead, drops its queue,
// and the next Send reconnects lazily. A malformed inbound frame
// (length above 16 MB) drops that connection only — the peer
// reconnects; the protocol layer tolerates loss-free FIFO per
// connection, which each individual TCP connection provides.
//
// Threading contract: after Start, everything about node `n`'s sockets
// — Send/Flush/DropConnection with src == n, OnEvent for events of n's
// epoll set, Deliver(n) — runs on one thread at a time (n's node thread
// in ThreadCluster), so no socket state is locked. Different nodes are
// fully concurrent. AddNode and Start happen before that thread starts,
// Stop after it has finished.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "sim/types.hpp"

namespace sbft {

class TcpBus {
 public:
  /// Receives one inbound frame on the receiving node's thread. The
  /// view points into the connection's receive buffer and is valid
  /// only for the duration of the call.
  using FrameFn = std::function<void(NodeId src, BytesView frame)>;

  TcpBus() = default;
  ~TcpBus();

  TcpBus(const TcpBus&) = delete;
  TcpBus& operator=(const TcpBus&) = delete;

  /// Create the listening socket for `node` and register it in
  /// `epoll_fd`, the node's event set (owned by the caller, open until
  /// Stop returns). Returns the bound port. Call once per node before
  /// Start().
  std::uint16_t AddNode(NodeId node, int epoll_fd);

  void Start();
  /// Close every socket. Idempotent.
  void Stop();

  /// Queue a frame from `src` to `dst` (connects lazily). Returns false
  /// if the bus is stopped, `dst` is unknown, or the connection could
  /// not be (re)established. The frame is not on the wire until
  /// Flush(src) — or src's OnEvent, if the connection is backlogged.
  bool Send(NodeId src, NodeId dst, BytesView frame);

  /// Write out everything queued by `src` since its last Flush; one
  /// send per touched connection (more only if the socket buffer
  /// fills).
  void Flush(NodeId src);

  /// Chaos hook: forcibly drop the (src, dst) connection as if the peer
  /// reset it. Queued frames are lost; the next Send reconnects. Runs
  /// on src's thread (ThreadCluster::DropConnection posts it there).
  void DropConnection(NodeId src, NodeId dst);

  /// Handle one event of a node's epoll set whose data.ptr a bus socket
  /// registered: accept, read, continue a backlogged flush, or retire a
  /// connection the peer closed.
  void OnEvent(void* socket, std::uint32_t events);

  /// Hand `fn` every complete frame OnEvent buffered on `node`'s
  /// inbound connections, in per-connection order; then close the
  /// connections that reached EOF or a malformed header.
  void Deliver(NodeId node, const FrameFn& fn);

  /// Connections dropped on error so far (send-side degradation).
  [[nodiscard]] std::uint64_t connections_dropped() const {
    return connections_dropped_.load(std::memory_order_relaxed);
  }

 private:
  enum class Kind : std::uint8_t { kListener, kInbound, kOutbound };
  enum class FlushResult : std::uint8_t { kDrained, kBlocked, kError };

  /// What a node's epoll set points at (epoll_event::data.ptr).
  struct Socket {
    explicit Socket(Kind socket_kind) : kind(socket_kind) {}
    Kind kind;
    int fd = -1;
    /// The node whose epoll set holds the fd: the listener's node, the
    /// receiver of an inbound connection, the sender of an outbound one.
    NodeId node = kNoNode;
  };

  /// Accepted connection. `inbuf` is a capacity buffer: `size()` is
  /// capacity, `len`/`off` delimit the unparsed bytes, so a short recv
  /// never pays a resize/zero-fill.
  struct Inbound : Socket {
    Inbound() : Socket(Kind::kInbound) {}
    Bytes inbuf;
    std::size_t len = 0;
    std::size_t off = 0;
    bool ready = false;    // queued in NodeSockets::ready
    bool closing = false;  // EOF, error or malformed frame: Deliver closes
  };

  /// Outgoing connection.
  struct Outbound : Socket {
    Outbound() : Socket(Kind::kOutbound) {}
    NodeId dst = kNoNode;
    /// Framed bytes queued for the wire; out[sent, size) is unwritten.
    Bytes out;
    std::size_t sent = 0;
    bool epollout_armed = false;
    bool dead = false;
    bool in_dirty = false;
  };

  /// Everything one node owns. After Start only that node's thread
  /// touches it, except `port`, which is read-only by then.
  struct NodeSockets {
    int epoll_fd = -1;
    std::uint16_t port = 0;
    Socket listener{Kind::kListener};
    std::vector<std::unique_ptr<Inbound>> inbound;
    /// Inbound connections with something for Deliver, in event order.
    std::vector<Inbound*> ready;
    std::map<NodeId, std::shared_ptr<Outbound>> outbound;  // by dst
    std::vector<std::shared_ptr<Outbound>> dirty;
  };

  [[nodiscard]] NodeSockets* Node(NodeId node) const;
  std::shared_ptr<Outbound> Connect(NodeId src, NodeId dst);
  void Accept(const Socket& listener);
  void Read(Inbound& in, std::uint32_t events);
  void OnOutboundEvent(Outbound& conn, std::uint32_t events);
  FlushResult Write(Outbound& conn);
  void MarkDead(Outbound& conn);
  /// Deregister and close the fd (no-op once closed).
  void Close(Socket& socket);

  std::vector<std::unique_ptr<NodeSockets>> nodes_;  // indexed by NodeId
  std::atomic<std::uint64_t> connections_dropped_{0};
  bool running_ = false;
  bool stopped_ = false;
};

}  // namespace sbft
