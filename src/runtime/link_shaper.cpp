#include "runtime/link_shaper.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sbft {
namespace {

std::uint64_t NowUs() {
  using Clock = std::chrono::steady_clock;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

LinkShaper::LinkShaper(LinkShaping options, std::uint64_t seed,
                       ForwardFn forward)
    : options_(options), forward_(std::move(forward)), rng_(seed) {}

LinkShaper::~LinkShaper() { Stop(); }

void LinkShaper::Start() {
  {
    MutexLock lock(mutex_);
    if (running_) return;
    running_ = true;
  }
  thread_ = std::thread([this] { Loop(); });
}

void LinkShaper::Stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) return;
    running_ = false;
  }
  wake_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(mutex_);
  heap_.clear();  // teardown: in-flight shaped frames are dropped
}

bool LinkShaper::Offer(NodeId src, NodeId dst, Frame&& frame) {
  std::uint64_t delay;
  {
    MutexLock lock(mutex_);
    if (!running_) return false;
    delay = options_.delay_us;
    if (options_.jitter_us != 0) {
      delay += rng_.NextBelow(options_.jitter_us + 1);
    }
    if (delay == 0) return false;  // a jitter-only link drew no delay
    Pending pending{NowUs() + delay, next_order_++, src, dst,
                    std::move(frame)};
    heap_.push_back(std::move(pending));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  wake_.NotifyOne();
  return true;
}

void LinkShaper::Loop() {
  std::vector<Pending> due;
  while (true) {
    {
      MutexLock lock(mutex_);
      if (!running_) return;
      const std::uint64_t now = NowUs();
      while (!heap_.empty() && heap_.front().release_us <= now) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        due.push_back(std::move(heap_.back()));
        heap_.pop_back();
      }
      if (due.empty()) {
        if (heap_.empty()) {
          wake_.Wait(mutex_);
        } else {
          wake_.WaitFor(mutex_, std::chrono::microseconds(
                                    heap_.front().release_us - now));
        }
      }
    }
    // Forward outside the lock: the forward fn takes mailbox locks.
    for (Pending& pending : due) {
      forward_(pending.src, pending.dst, std::move(pending.frame));
    }
    due.clear();
  }
}

}  // namespace sbft
