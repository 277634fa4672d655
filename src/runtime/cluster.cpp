#include "runtime/cluster.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <ctime>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace sbft {
namespace {

using Clock = std::chrono::steady_clock;

/// CPU time consumed by the calling thread. One syscall per call —
/// sampled once per wakeup, not per frame, so the cost amortizes over
/// the wakeup like everything else on this path.
std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Node whose NodeLoop owns the current thread (kNoNode elsewhere).
/// Thread-local, so OnNodeThread needs no synchronization.
thread_local NodeId tls_node = kNoNode;

}  // namespace

// Endpoint bound to one node of the threaded cluster. Called only from
// the node's own thread (handlers, OnStart hooks and posted tasks all
// run inside NodeLoop) — which the transport requires, since that
// thread owns the node's sockets.
class ThreadCluster::Endpoint final : public IEndpoint {
 public:
  Endpoint(ThreadCluster& cluster, NodeId id, Rng rng, Rng jitter)
      : cluster_(cluster), id_(id), rng_(rng), jitter_(jitter) {}

  void Send(NodeId dst, Bytes frame) override {
    cluster_.tcp_.Send(id_, dst, frame);
    FramePool().Release(std::move(frame));
  }

  void Broadcast(std::span<const NodeId> dsts, Bytes frame) override {
    // One encode, one socket write per destination, zero frame copies.
    for (const NodeId dst : dsts) cluster_.tcp_.Send(id_, dst, frame);
    FramePool().Release(std::move(frame));
  }

  void SetTimer(VirtualTime delay, int timer_id) override {
    // The timer list needs no lock: NodeLoop reads it between wakeups
    // on this same thread. Delays are microseconds, matching Now().
    timers_.emplace_back(Clock::now() + std::chrono::microseconds(delay),
                         timer_id);
  }

  /// Hold a received frame for its shaped delay: copy it into a pooled
  /// buffer and queue it for ReleaseDue. Returns false — dispatch it
  /// now, in place — on an unshaped link or a zero draw. Node-thread
  /// only.
  bool Hold(NodeId src, BytesView frame) {
    const LinkShaping& shaping = cluster_.options_.shaping;
    if (!shaping.enabled()) return false;
    std::uint64_t delay = shaping.delay_us;
    if (shaping.jitter_us != 0) {
      delay += jitter_.NextBelow(shaping.jitter_us + 1);
    }
    if (delay == 0) return false;  // a jitter-only link drew no delay
    Bytes copy = FramePool().Acquire();
    copy.assign(frame.begin(), frame.end());
    held_.push_back(Held{Clock::now() + std::chrono::microseconds(delay),
                         next_hold_++, src, std::move(copy)});
    std::push_heap(held_.begin(), held_.end(), Later{});
    return true;
  }

  /// Dispatch every held frame whose delay ran out, earliest release
  /// first, and return its buffer to this thread's pool. Node-thread
  /// only.
  template <typename Dispatch>
  void ReleaseDue(const Dispatch& dispatch) {
    if (held_.empty()) return;
    const auto now = Clock::now();
    while (!held_.empty() && held_.front().release <= now) {
      std::pop_heap(held_.begin(), held_.end(), Later{});
      Held due = std::move(held_.back());
      held_.pop_back();
      dispatch(due.src, due.frame);
      FramePool().Release(std::move(due.frame));
    }
  }

  /// Earliest of the pending timers and held frames, if any.
  /// Node-thread only.
  [[nodiscard]] std::optional<Clock::time_point> NextDeadline() const {
    std::optional<Clock::time_point> best;
    if (!held_.empty()) best = held_.front().release;
    for (const auto& [when, id] : timers_) {
      if (!best || when < *best) best = when;
    }
    return best;
  }

  /// Fire every due timer in arming order. Node-thread only.
  void FireDueTimers(Automaton& automaton) {
    if (timers_.empty()) return;
    const auto now = Clock::now();
    // Collect ids first: OnTimer may re-arm, appending to timers_.
    std::vector<int> due;
    std::erase_if(timers_, [&](const auto& timer) {
      if (timer.first > now) return false;
      due.push_back(timer.second);
      return true;
    });
    for (const int timer_id : due) automaton.OnTimer(timer_id, *this);
  }

  [[nodiscard]] VirtualTime Now() const override {
    return static_cast<VirtualTime>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  [[nodiscard]] NodeId self() const override { return id_; }
  Rng& rng() override { return rng_; }

 private:
  /// A received frame waiting out its shaped delay.
  struct Held {
    Clock::time_point release;
    std::uint64_t order;  // arrival order: FIFO among equal releases
    NodeId src;
    Bytes frame;  // from this node thread's FramePool()
  };
  struct Later {
    bool operator()(const Held& a, const Held& b) const {
      return a.release != b.release ? a.release > b.release
                                    : a.order > b.order;
    }
  };

  ThreadCluster& cluster_;
  NodeId id_;
  Rng rng_;
  /// Draws the shaped delays, so shaping moves no automaton draw.
  Rng jitter_;
  /// Pending timers, unordered (the list stays tiny — the mux batch
  /// window arms at most one). Touched only by the owning node thread.
  std::vector<std::pair<Clock::time_point, int>> timers_;
  /// Min-heap of held frames on (release, order) via std::push_heap/
  /// pop_heap. Touched only by the owning node thread; frames still
  /// held when the cluster stops are dropped with it.
  std::vector<Held> held_;
  std::uint64_t next_hold_ = 0;
};

ThreadCluster::ThreadCluster(Options options) : options_(options) {}

ThreadCluster::~ThreadCluster() {
  Stop();
  // The sockets leave their epoll sets before the sets close (Stop
  // skips the transport when the cluster never started).
  tcp_.Stop();
  for (const int epoll_fd : epoll_fds_) ::close(epoll_fd);
}

NodeId ThreadCluster::AddNode(std::unique_ptr<Automaton> automaton) {
  SBFT_ASSERT(!started_);
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(automaton));
  mailboxes_.push_back(std::make_unique<Mailbox>());
  Rng seeder(options_.seed + id * 7919);
  // The automaton's stream forks first, so the jitter stream moves none
  // of its draws.
  Rng rng = seeder.Fork();
  endpoints_.push_back(
      std::make_unique<Endpoint>(*this, id, rng, seeder.Fork()));
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  SBFT_ASSERT(epoll_fd >= 0);
  epoll_fds_.push_back(epoll_fd);
  epoll_event mailbox_event{};
  mailbox_event.events = EPOLLIN;
  mailbox_event.data.ptr = nullptr;  // the mailbox; sockets carry theirs
  SBFT_ASSERT(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, mailboxes_[id]->wake_fd(),
                          &mailbox_event) == 0);
  tcp_.AddNode(id, epoll_fd);
  return id;
}

void ThreadCluster::Start() {
  SBFT_ASSERT(!started_);
  started_ = true;
  tcp_.Start();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    threads_.emplace_back([this, id] { NodeLoop(id); });
  }
  // OnStart on each node's own thread, synchronously.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    RunOnNode(id, [this, id] { nodes_[id]->OnStart(*endpoints_[id]); });
  }
}

bool ThreadCluster::OnNodeThread(NodeId id) const { return tls_node == id; }

void ThreadCluster::NodeLoop(NodeId id) {
  tls_node = id;
  Automaton& automaton = *nodes_[id];
  Mailbox& mailbox = *mailboxes_[id];
  Endpoint& endpoint = *endpoints_[id];
  const int epoll_fd = epoll_fds_[id];
  std::array<epoll_event, 64> events{};
  std::deque<MailItem> batch;
  // The dispatch bracket — batch hooks, handlers, timers — is the
  // protocol work of one wakeup; the wait, the socket reads and the
  // flush are transport. Thread CPU is sampled at the bracket's edges.
  // It opens at the first dispatched frame or task, so a wakeup with
  // nothing to dispatch (a torn frame, a held frame, a lone timer) runs
  // no batch hooks.
  bool in_batch = false;
  std::uint64_t cpu_start = 0;
  std::uint64_t frames = 0;
  const auto open_batch = [&] {
    if (in_batch) return;
    in_batch = true;
    cpu_start = ThreadCpuNs();
    // Bracket the wakeup so the node can coalesce everything it sends
    // in response (protocol-round batching seam — one wakeup, one
    // shared round, whether the frames came off the sockets now or were
    // held by shaping).
    automaton.OnBatchStart(endpoint);
  };
  const auto dispatch = [&](NodeId src, BytesView frame) {
    open_batch();
    ++frames;
    automaton.OnFrame(src, frame, endpoint);
  };
  // An unshaped frame is dispatched in place, from the connection's
  // receive buffer; a shaped one is copied and held.
  const TcpBus::FrameFn on_frame = [&](NodeId src, BytesView frame) {
    if (!endpoint.Hold(src, frame)) dispatch(src, frame);
  };
  for (;;) {
    // Block until a socket or the mailbox is ready, the next timer is
    // due or the next held frame is released (microsecond resolution:
    // a millisecond epoll_wait timeout would round every batch-window
    // timer up). With work already in the mailbox, only poll the
    // sockets.
    timespec timeout{};
    const timespec* wait = &timeout;
    if (mailbox.Park()) {
      if (const auto deadline = endpoint.NextDeadline()) {
        const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
            *deadline - Clock::now());
        if (left.count() > 0) {
          timeout.tv_sec = static_cast<time_t>(left.count() / 1'000'000'000);
          timeout.tv_nsec = static_cast<long>(left.count() % 1'000'000'000);
        }
      } else {
        wait = nullptr;
      }
    }
    const int ready = ::epoll_pwait2(epoll_fd, events.data(),
                                     static_cast<int>(events.size()), wait,
                                     nullptr);
    for (int i = 0; i < ready; ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.ptr == nullptr) {
        mailbox.ConsumeWake();
      } else {
        tcp_.OnEvent(event.data.ptr, event.events);
      }
    }
    // Tasks that this wakeup's callbacks post to their own node (the
    // follow-up ops of a closed loop) stay queued for the next wakeup:
    // the mailbox is the op accumulator the shared-FLUSH window relies
    // on (ShardedCluster::AsyncWrite).
    if (!mailbox.Drain(batch)) break;
    tcp_.Deliver(id, on_frame);
    endpoint.ReleaseDue(dispatch);
    for (auto& task : batch) {
      open_batch();
      task();
    }
    if (in_batch) automaton.OnBatchEnd(endpoint);
    if (frames != 0) {
      frames_delivered_.fetch_add(frames, std::memory_order_relaxed);
    }
    // Due timers fire after the batch, on the same thread that runs
    // handlers — automata stay single-threaded here as in the sim.
    endpoint.FireDueTimers(automaton);
    if (in_batch) {
      protocol_cpu_ns_.fetch_add(ThreadCpuNs() - cpu_start,
                                 std::memory_order_relaxed);
    }
    in_batch = false;
    frames = 0;
    // Everything this wakeup queued on the wire goes out in (at most)
    // one syscall per touched connection.
    tcp_.Flush(id);
  }
}

void ThreadCluster::RunOnNode(NodeId id, std::function<void()> fn) {
  SBFT_ASSERT(id < nodes_.size());
  // From the node's own thread the task could never run: the thread
  // would be waiting for itself.
  SBFT_ASSERT(!OnNodeThread(id));
  std::promise<void> done;
  auto future = done.get_future();
  const bool pushed = mailboxes_[id]->Push([fn = std::move(fn), &done] {
    fn();
    done.set_value();
  });
  SBFT_ASSERT(pushed);
  future.wait();
}

void ThreadCluster::PostToNode(NodeId id, std::function<void()> fn) {
  if (id >= nodes_.size()) return;
  mailboxes_[id]->Push(std::move(fn));
}

void ThreadCluster::DropConnection(NodeId src, NodeId dst) {
  PostToNode(src, [this, src, dst] { tcp_.DropConnection(src, dst); });
}

void ThreadCluster::Stop() {
  if (stopped_ || !started_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  // Closing a mailbox wakes its node, which exits once the mailbox is
  // drained; only after every node thread — the only driver of the
  // sockets — is joined does the transport close them.
  for (auto& mailbox : mailboxes_) mailbox->Close();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
  tcp_.Stop();
}

}  // namespace sbft
