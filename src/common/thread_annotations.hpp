// Clang thread-safety annotations plus annotated mutex wrappers.
//
// The macros expand to Clang's `thread_safety` attributes when the
// compiler supports them (clang with -Wthread-safety) and to nothing
// otherwise (gcc), so the same headers build everywhere while clang
// turns lock-discipline violations into compile errors:
//
//   Mutex mutex_;
//   std::deque<Item> items_ GUARDED_BY(mutex_);
//
//   void Push(Item item) {
//     MutexLock lock(mutex_);
//     items_.push_back(std::move(item));  // ok: mutex_ held
//   }
//   std::size_t UnsafeSize() { return items_.size(); }  // compile error
//
// CI builds the runtime/net targets with
// `clang++ -Wthread-safety -Werror` (see SBFTREG_THREAD_SAFETY in the
// top-level CMakeLists.txt and the `lint` workflow job), and
// tests/lint/negative_compile keeps the analysis honest by compiling a
// deliberately mis-locked access and expecting failure.
//
// The locking model itself (which mutex guards what) is documented in
// docs/ARCHITECTURE.md and enforced by the annotations in
// src/runtime/*.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SBFT_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SBFT_THREAD_ANNOTATION
#define SBFT_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

#define CAPABILITY(x) SBFT_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SBFT_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) SBFT_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SBFT_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  SBFT_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) SBFT_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) SBFT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  SBFT_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) SBFT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  SBFT_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) SBFT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  SBFT_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  SBFT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) SBFT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) SBFT_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) SBFT_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  SBFT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sbft {

/// std::mutex with the `capability` attribute so members can be
/// GUARDED_BY it. Lowercase lock/unlock keep it BasicLockable for
/// CondVar (condition_variable_any) and std::scoped_lock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  std::mutex mutex_;
};

/// Scoped lock over Mutex; the analysis tracks the capability for the
/// guard's whole scope (the annotated std::lock_guard equivalent).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable over Mutex. WaitFor, the only wait, is bounded
/// and takes the mutex the caller already holds. Call it in a plain
/// loop that re-checks the predicate and the deadline rather than
/// passing a predicate lambda, so the guarded reads stay inside the
/// annotated function body.
class CondVar {
 public:
  /// Atomically releases `mutex`, blocks for at most `timeout`, and
  /// reacquires before returning. Spurious wakeups possible — always
  /// wait in a loop. Used by components that sleep until a deadline but
  /// must wake early on new work (load/driver.cpp's drain).
  template <class Rep, class Period>
  void WaitFor(Mutex& mutex,
               const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mutex) {
    cv_.wait_for(mutex, timeout);
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// Lock-order anchors: one annotation-only global Mutex per runtime
/// mutex family. Clang's ACQUIRED_BEFORE/ACQUIRED_AFTER attributes
/// cannot name another class's non-static member, so each family gets
/// a namespace-scope stand-in here and the real mutex declarations
/// order themselves against the anchors (the abseil idiom). The
/// anchors are never locked — they exist so the acquisition order is
/// machine-readable: tools/sbft_analyze.py parses the `anchor-for:`
/// comments to map each anchor to its family, reads the ACQUIRED_*
/// annotations as the declared DAG, and checks the acquisition edges
/// it observes in the code against it. docs/ARCHITECTURE.md renders
/// the same DAG as a table.
///
/// Edges declared today (held-while-acquiring, left before right):
///   kLoadDriver  -> kShardRouter, kMailbox
/// kShardRouter, kMailbox and the ad-hoc leaves (logging sink, parallel
/// sweep error mutex) acquire nothing nested. The TCP transport and
/// link shaping have no mutex: each node thread owns its sockets and
/// the frames it holds.
namespace lock_order {
inline Mutex kLoadDriver;   // anchor-for: sbft::load::RunState::mutex
inline Mutex kShardRouter;  // anchor-for: sbft::ShardedCluster::mutex_
inline Mutex kMailbox;      // anchor-for: sbft::Mailbox::mutex_
}  // namespace lock_order

}  // namespace sbft
