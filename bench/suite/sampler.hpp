// A thread that calls a function on a timer and keeps what it returns.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sbft::suite {

/// Calls `read` every `period` on its own thread until Stop().
template <typename Sample>
class PeriodicSampler {
 public:
  PeriodicSampler(std::function<Sample()> read, std::chrono::milliseconds period)
      : read_(std::move(read)), period_(period), thread_([this] { Loop(); }) {}
  ~PeriodicSampler() { (void)Stop(); }

  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  /// Joins the thread and hands over the samples taken.
  std::vector<Sample> Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
    return std::move(samples_);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      Sample sample = read_();
      lock.lock();
      samples_.push_back(std::move(sample));
      wake_.wait_for(lock, period_, [this] { return stop_; });
    }
  }

  std::function<Sample()> read_;
  std::chrono::milliseconds period_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;  // last: starts once the members above exist
};

}  // namespace sbft::suite
