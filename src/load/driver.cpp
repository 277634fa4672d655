#include "load/driver.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <thread>
#include <utility>

#include "common/thread_annotations.hpp"

namespace sbft::load {
namespace {

using Clock = std::chrono::steady_clock;

/// After the last scheduled arrival, wait at most this long for
/// in-flight and queued operations to finish.
constexpr std::uint64_t kDrainTimeoutUs = 10'000'000;

OpRecord::Result MapStatus(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return OpRecord::Result::kOk;
    case OpStatus::kAborted:
      return OpRecord::Result::kAborted;
    case OpStatus::kFailed:
      return OpRecord::Result::kFailed;
  }
  return OpRecord::Result::kFailed;
}

/// Mutable run state shared between the pacing thread and the node
/// threads that run completion callbacks. Lock order: this mutex may
/// be held across mailbox pushes (AsyncWrite/AsyncRead), but node
/// threads never hold a mailbox lock while calling back in — so the
/// order is acyclic.
struct RunState {
  struct KeyState {
    std::deque<std::size_t> queue;  // schedule indices awaiting launch
    bool busy = false;              // one in-flight op per key
  };

  RunState(std::size_t n_keys, std::size_t n_ops)
      : keys(n_keys), records(n_ops), launched_flag(n_ops, false) {}

  /// Outermost lock of the runtime stack: StartOp runs under it and
  /// reaches the shard router's map mutex and the destination
  /// mailbox mutex (AsyncWrite -> RouteWrite -> PostToNode).
  Mutex mutex ACQUIRED_BEFORE(lock_order::kShardRouter,
                              lock_order::kMailbox);
  CondVar drained;
  std::vector<KeyState> keys GUARDED_BY(mutex);
  std::vector<OpRecord> records GUARDED_BY(mutex);
  std::vector<bool> launched_flag GUARDED_BY(mutex);
  std::size_t launched GUARDED_BY(mutex) = 0;
  std::size_t queued GUARDED_BY(mutex) = 0;
  std::size_t returned GUARDED_BY(mutex) = 0;
  std::size_t ok GUARDED_BY(mutex) = 0;
  std::size_t aborted GUARDED_BY(mutex) = 0;
  std::size_t failed GUARDED_BY(mutex) = 0;
  std::uint64_t last_return_us GUARDED_BY(mutex) = 0;
  std::uint64_t first_write_done_us GUARDED_BY(mutex) = ~0ull;
  LatencyHistogram write_latency GUARDED_BY(mutex);
  LatencyHistogram read_latency GUARDED_BY(mutex);
  /// Drain window over: late callbacks must not touch the state the
  /// result was (or is being) built from.
  bool closed GUARDED_BY(mutex) = false;
};

class Engine {
 public:
  explicit Engine(const Scenario& scenario)
      : scenario_(scenario),
        schedule_(BuildSchedule(scenario)),
        state_(scenario.n_keys, schedule_.size()),
        cluster_(ShardedOptionsFor(scenario)) {}

  LoadResult Run();

 private:
  void Pace();
  void FireCorruption(const CorruptionSpec& spec, std::size_t index);
  void MaybeAddGroup(std::uint64_t next_at_us);
  void StartOp(std::size_t index) REQUIRES(state_.mutex);
  void Finish(std::size_t index, OpStatus status, const Bytes* read_value);
  void SleepUntilUs(std::uint64_t us) {
    std::this_thread::sleep_until(start_ + std::chrono::microseconds(us));
  }
  [[nodiscard]] std::uint64_t NowUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count());
  }

  const Scenario scenario_;
  const std::vector<ScheduledOp> schedule_;
  RunState state_;
  Clock::time_point start_;
  std::vector<std::uint64_t> corruption_times_;
  bool group_added_ = false;
  std::uint64_t group_add_time_us_ = ~0ull;
  // Last member: destroyed (and its node threads joined) first, so no
  // completion callback can observe a partially-destroyed Engine.
  ShardedCluster cluster_;
};

void Engine::StartOp(std::size_t index) {
  const ScheduledOp& op = schedule_[index];
  OpRecord& rec = state_.records[index];
  rec.kind = op.is_write ? OpRecord::Kind::kWrite : OpRecord::Kind::kRead;
  rec.client = op.key;
  rec.invoked_at = NowUs();  // actual launch: oracle-sound precedence
  if (op.is_write) rec.value = ValueFor(op);
  state_.launched_flag[index] = true;
  ++state_.launched;
  if (op.is_write) {
    cluster_.AsyncWrite(op.key, ValueFor(op),
                        [this, index](const WriteOutcome& outcome) {
                          Finish(index, outcome.status, nullptr);
                        });
  } else {
    cluster_.AsyncRead(op.key, [this, index](const ReadOutcome& outcome) {
      Finish(index, outcome.status, &outcome.value);
    });
  }
}

void Engine::Finish(std::size_t index, OpStatus status,
                    const Bytes* read_value) {
  const std::uint64_t now = NowUs();
  MutexLock lock(state_.mutex);
  if (state_.closed) return;
  const ScheduledOp& op = schedule_[index];
  OpRecord& rec = state_.records[index];
  rec.returned_at = now;
  rec.result = MapStatus(status);
  if (read_value != nullptr && status == OpStatus::kOk) {
    rec.value = *read_value;
  }
  ++state_.returned;
  switch (rec.result) {
    case OpRecord::Result::kOk:
      ++state_.ok;
      break;
    case OpRecord::Result::kAborted:
      ++state_.aborted;
      break;
    default:
      ++state_.failed;
      break;
  }
  state_.last_return_us = std::max(state_.last_return_us, now);
  if (status == OpStatus::kOk) {
    if (op.is_write) {
      state_.first_write_done_us = std::min(state_.first_write_done_us, now);
    }
    // Coordinated-omission-free latency: charged from the INTENDED
    // arrival, so time spent queued behind a slow predecessor counts.
    const std::uint64_t latency = now > op.at_us ? now - op.at_us : 0;
    (op.is_write ? state_.write_latency : state_.read_latency)
        .Record(latency);
  }
  RunState::KeyState& key = state_.keys[op.key];
  if (!key.queue.empty()) {
    const std::size_t next = key.queue.front();
    key.queue.pop_front();
    --state_.queued;
    StartOp(next);
  } else {
    key.busy = false;
  }
  state_.drained.NotifyAll();
}

void Engine::FireCorruption(const CorruptionSpec& spec, std::size_t index) {
  std::vector<std::size_t> servers = spec.servers;
  if (servers.empty()) {
    for (std::size_t s = 0; s < scenario_.n_servers; ++s)
      servers.push_back(s);
  }
  // Coordinated corruption: every server in the event shares one seed,
  // so the injected garbage AGREES across replicas. Agreeing garbage is
  // witnessed at >= 2f+1 and answers reads (kOk with a fabricated
  // value) instead of aborting them — the worst case Theorem 2 bounds,
  // and the one that actually exercises MeasureStabilization's
  // violation window. (Distinct per-server seeds made every post-fault
  // read abort, so the window always measured 0 — ROADMAP item 4.)
  const std::uint64_t seed = scenario_.seed * 7919 + index * 131 + 1;
  for (std::size_t s : servers) {
    cluster_.CorruptServer(s, seed);
  }
  corruption_times_.push_back(NowUs());
}

void Engine::MaybeAddGroup(std::uint64_t next_at_us) {
  if (group_added_ || scenario_.group_add_at_us == 0 ||
      scenario_.group_add_at_us > next_at_us) {
    return;
  }
  SleepUntilUs(scenario_.group_add_at_us);
  // AddGroup blocks the pacing thread while the new group's node
  // threads come up (milliseconds on TCP). Ops arriving meanwhile are
  // charged from their INTENDED start anyway, so the stall shows up
  // honestly as queueing latency — the cost of scaling out under load.
  cluster_.AddGroup();
  group_added_ = true;
  group_add_time_us_ = NowUs();
}

void Engine::Pace() {
  std::vector<CorruptionSpec> corruptions = scenario_.corruptions;
  std::stable_sort(corruptions.begin(), corruptions.end(),
                   [](const CorruptionSpec& a, const CorruptionSpec& b) {
                     return a.at_us < b.at_us;
                   });
  std::size_t next_corruption = 0;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    while (next_corruption < corruptions.size() &&
           corruptions[next_corruption].at_us <= schedule_[i].at_us) {
      SleepUntilUs(corruptions[next_corruption].at_us);
      FireCorruption(corruptions[next_corruption], next_corruption);
      ++next_corruption;
    }
    MaybeAddGroup(schedule_[i].at_us);
    SleepUntilUs(schedule_[i].at_us);
    MutexLock lock(state_.mutex);
    RunState::KeyState& key = state_.keys[schedule_[i].key];
    if (key.busy) {
      key.queue.push_back(i);
      ++state_.queued;
    } else {
      key.busy = true;
      StartOp(i);
    }
  }
  while (next_corruption < corruptions.size()) {
    SleepUntilUs(corruptions[next_corruption].at_us);
    FireCorruption(corruptions[next_corruption], next_corruption);
    ++next_corruption;
  }
  MaybeAddGroup(~0ull);  // schedule ended before the growth point
}

LoadResult Engine::Run() {
  cluster_.Start();
  start_ = Clock::now();
  Pace();
  const std::uint64_t deadline = NowUs() + kDrainTimeoutUs;

  LoadResult result;
  {
    MutexLock lock(state_.mutex);
    while (!(state_.returned == state_.launched && state_.queued == 0)) {
      const std::uint64_t now = NowUs();
      if (now >= deadline) break;
      state_.drained.WaitFor(state_.mutex,
                             std::chrono::microseconds(deadline - now));
    }
    state_.closed = true;

    result.scheduled = schedule_.size();
    result.launched = state_.launched;
    result.ok = state_.ok;
    result.aborted = state_.aborted;
    result.failed = state_.failed;
    result.pending = state_.launched - state_.returned;
    result.unlaunched = schedule_.size() - state_.launched;
    result.completed_frac =
        schedule_.empty() ? 1.0
                          : static_cast<double>(state_.returned) /
                                static_cast<double>(schedule_.size());
    result.run_duration_us =
        std::max(state_.last_return_us, scenario_.TotalDurationUs());
    result.achieved_ops_per_sec =
        result.run_duration_us == 0
            ? 0.0
            : static_cast<double>(state_.ok) * 1e6 /
                  static_cast<double>(result.run_duration_us);
    result.first_write_done_us = state_.first_write_done_us;
    result.write_latency = state_.write_latency;
    result.read_latency = state_.read_latency;
    for (std::size_t i = 0; i < schedule_.size(); ++i) {
      if (state_.launched_flag[i]) result.history.Add(state_.records[i]);
    }
  }
  result.corruption_times_us = corruption_times_;
  result.group_add_time_us = group_add_time_us_;
  result.final_groups = cluster_.n_groups();
  result.final_epoch = cluster_.epoch();
  result.keys_awaiting_handoff = cluster_.keys_awaiting_handoff();
  cluster_.Stop();
  return result;
}

}  // namespace

LoadResult RunOpenLoop(const Scenario& scenario) {
  Engine engine(scenario);
  return engine.Run();
}

}  // namespace sbft::load
