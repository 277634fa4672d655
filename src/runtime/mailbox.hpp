// MPSC mailbox used by the threaded runtime. It carries tasks to a
// node (PostToNode/RunOnNode); every frame arrives over the node's
// sockets. Producers are any threads (other node threads, external
// drivers); the consumer is the owning node thread, which waits for its
// mailbox and its sockets in one epoll set (runtime/cluster.cpp). The
// mailbox signals an eventfd for that wait, but only while the consumer
// is parked: a post to a busy node costs no syscall.
#pragma once

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace sbft {

/// A task to run on the node thread (used to inject client operations
/// with single-threaded automaton semantics).
using MailItem = std::function<void()>;

class Mailbox {
 public:
  Mailbox() : wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
    SBFT_ASSERT(wake_fd_ >= 0);
  }
  ~Mailbox() { ::close(wake_fd_); }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Returns false if the mailbox is closed.
  bool Push(MailItem item) {
    bool wake = false;
    {
      MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      wake = std::exchange(parked_, false);
    }
    if (wake) Signal();
    return true;
  }

  /// Consumer side; never blocks. Swaps the whole queue into `out` —
  /// one lock per drain, however many items arrived — and clears the
  /// parked mark. `out` is cleared first. Returns false only when the
  /// mailbox is closed AND drained (runtime shutdown).
  bool Drain(std::deque<MailItem>& out) {
    out.clear();
    MutexLock lock(mutex_);
    parked_ = false;
    if (items_.empty()) return !closed_;
    out.swap(items_);
    return true;
  }

  /// Consumer side, right before it blocks on wake_fd(). Returns true
  /// and marks the consumer parked when the mailbox is open and empty,
  /// so that the next Push signals wake_fd(). Returns false when there
  /// is something to drain (or the mailbox closed): do not block.
  bool Park() {
    MutexLock lock(mutex_);
    if (closed_ || !items_.empty()) return false;
    parked_ = true;
    return true;
  }

  /// Readable once a Push to a parked consumer, or Close, signalled it;
  /// the consumer resets it with ConsumeWake.
  [[nodiscard]] int wake_fd() const { return wake_fd_; }
  void ConsumeWake() {
    std::uint64_t count = 0;
    [[maybe_unused]] ssize_t n = ::read(wake_fd_, &count, sizeof(count));
  }

  void Close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
      parked_ = false;
    }
    Signal();
  }

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  void Signal() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }

  /// Leaf-ish lock: pushes happen with the load driver's run-state
  /// mutex held (StartOp under RunState::mutex reaches Push), and
  /// nothing is acquired while this mutex is held.
  mutable Mutex mutex_ ACQUIRED_AFTER(lock_order::kLoadDriver);
  std::deque<MailItem> items_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
  /// Set by Park; cleared by Drain and by the Push that signals.
  bool parked_ GUARDED_BY(mutex_) = false;
  const int wake_fd_;
};

}  // namespace sbft
