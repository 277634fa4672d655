#include "engine.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "load/scenario.hpp"
#include "meter.hpp"
#include "probe.hpp"
#include "runtime/sharded_cluster.hpp"
#include "trace.hpp"

namespace sbft::suite {
namespace {

using Clock = std::chrono::steady_clock;

// name, open_loop, rate, read_fraction, keys, groups, corrupt. Why each
// exists is in README.md and BENCHMARK.json.
const std::vector<Workload> kWorkloads = {
    {"steady", true, 8000, 0.9, 1024, 1, false},
    {"saturate", false, 0, 0, 256, 1, false},
    {"sharded", false, 0, 0, 1024, 4, false},
    {"recovery", true, 2000, 0.5, 256, 1, true},
};

constexpr std::uint32_t kServers = 16;
constexpr std::size_t kBatchMaxOps = 64;
constexpr std::uint64_t kBatchMaxDelayUs = 200;
/// Spans are kept for every kSpanStride-th op; latencies cover all.
constexpr std::size_t kSpanStride = 16;
constexpr std::chrono::milliseconds kCounterPeriod{100};
/// Closed-loop op-log capacity per second of traffic: over 3x the
/// fastest workload measured (sharded, ~60k ops/s on 4 cores).
constexpr double kClosedLoopMaxOpsPerSec = 200'000;
/// The fault hits this far into the window (or halfway, if sooner).
constexpr double kFaultAfterS = 5.0;
constexpr std::chrono::seconds kSetupTimeout{30};
/// After the window, in-flight and queued ops get this long to finish.
constexpr std::chrono::seconds kDrainTimeout{10};

template <typename GroupOptions>
void UseServingPath(GroupOptions& group) {
  // Compiles to nothing once mux implies batching and shared FLUSH.
  if constexpr (requires { group.shared_flush; }) {
    group.batch_max_ops = kBatchMaxOps;
    group.batch_max_delay_us = kBatchMaxDelayUs;
    group.shared_flush = true;
  }
}

ShardedCluster::Options ClusterOptions(const Workload& workload,
                                       std::uint64_t seed) {
  ShardedCluster::Options options;
  options.n_groups = workload.groups;
  options.group.config = ProtocolConfig::ForServers(kServers);
  options.group.use_tcp = true;
  options.group.reactor_threads = 1;
  options.group.multiplex = true;
  options.group.n_clients = workload.keys;
  options.group.seed = seed;
  UseServingPath(options.group);
  return options;
}

struct Usage {
  std::uint64_t cpu_ns = 0;  // user + sys, all threads
  std::uint64_t ctx_switches = 0;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return {ns(ru.ru_utime) + ns(ru.ru_stime),
          static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::size_t ThreadCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

/// Nearest-rank quantile; reorders `values`.
double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const auto index = values.begin() + static_cast<std::ptrdiff_t>(
                                          std::clamp<std::size_t>(rank, 1, values.size()) - 1);
  std::nth_element(values.begin(), index, values.end());
  return *index;
}

OpState StateOf(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return OpState::kOk;
    case OpStatus::kAborted:
      return OpState::kAborted;
    case OpStatus::kFailed:
      break;
  }
  return OpState::kFailed;
}

class Run {
 public:
  Run(const Workload& workload, const RunConfig& config);
  RunReport Execute();

 private:
  /// Counters read at the window's edges, on the main thread.
  struct Sample {
    Usage usage;
    std::uint64_t protocol_cpu_ns = 0;
    std::uint64_t frames = 0;
    std::uint64_t main_cpu_ns = 0;
    std::uint64_t main_submit_cpu_ns = 0;
    std::uint64_t callback_cpu_ns = 0;
  };

  [[nodiscard]] std::uint32_t Us(Clock::time_point t) const {
    return static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - origin_)
            .count());
  }
  [[nodiscard]] std::uint32_t NowUs() const { return Us(Clock::now()); }
  void SleepUntilUs(std::uint32_t us) const {
    std::this_thread::sleep_until(origin_ + std::chrono::microseconds(us));
  }
  [[nodiscard]] bool InWindow(std::uint32_t us) const {
    return us >= window_start_us_ && us < window_end_us_;
  }
  void AtWindowEnd();

  [[nodiscard]] std::string SetUp();
  [[nodiscard]] std::string WriteEveryKey();
  void RunOpenLoop();
  void RunClosedLoop();
  void Drain();
  /// Issue log_[slot] through the router. `submit_cpu_ns`, when set,
  /// accumulates the thread CPU of the router call (traced runs).
  void Submit(std::size_t slot, std::uint64_t* submit_cpu_ns);
  void Complete(std::size_t slot, OpStatus status, const Value* value);
  /// The op to issue after `done` on the same key, if any.
  std::optional<std::size_t> NextOp(const Op& done);
  [[nodiscard]] Sample TakeSample() const;
  void InjectFault();
  [[nodiscard]] std::size_t OpsUsed() const;
  void Analyze(RunReport& report, const std::optional<ProbeTimes>& probes,
               std::span<const CounterSample> counters);

  const Workload& workload_;
  const RunConfig& config_;
  const bool traced_;
  const Clock::time_point origin_ = Clock::now();
  const std::vector<load::ScheduledOp> schedule_;  // open loop only

  /// Slots [0, keys) hold the set-up writes; open-loop op i of the
  /// schedule is slot keys + i; closed-loop slots are handed out in
  /// completion order.
  std::vector<Op> log_;
  std::atomic<std::size_t> next_slot_{0};
  std::atomic<bool> log_full_{false};
  /// Closed loop: clients issue follow-ups only once the run starts.
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> clients_done_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> callback_cpu_ns_{0};

  /// Open loop: one op in flight per key, later arrivals queue.
  std::mutex keys_mutex_;
  std::vector<char> busy_;                       // guarded by keys_mutex_
  std::vector<std::deque<std::size_t>> queued_;  // guarded by keys_mutex_
  /// Closed loop: last write sequence per key. Touched only along the
  /// key's chain of ops, which the callbacks order.
  std::vector<std::uint32_t> write_seq_;
  /// Open loop: how late the generator reached each scheduled op.
  std::vector<std::uint32_t> pace_lag_us_;
  std::uint64_t main_submit_cpu_ns_ = 0;  // main thread only

  std::vector<double> setup_s_;
  double rss_base_mb_ = 0;
  double rss_end_mb_ = 0;
  std::size_t threads_ = 0;
  std::uint64_t flush_rounds_ = 0;
  std::uint32_t run_start_us_ = 0;
  std::uint32_t window_start_us_ = 0;
  std::uint32_t window_end_us_ = 0;
  std::optional<std::uint32_t> fault_at_us_;
  Sample at_start_;
  Sample at_end_;
  /// Runs from before the first set-up to the end of the window.
  std::optional<HostMeter> meter_;
  double host_pass_ns_ = 0;
  // Last member: destroyed (node threads joined) first.
  std::unique_ptr<ShardedCluster> cluster_;
};

std::vector<load::ScheduledOp> ScheduleFor(const Workload& workload,
                                           const RunConfig& config) {
  if (!workload.open_loop) return {};
  load::Scenario scenario;
  scenario.n_keys = workload.keys;
  scenario.read_fraction = workload.read_fraction;
  scenario.rate_ops_per_sec = workload.rate_ops_per_sec;
  scenario.duration_us =
      static_cast<std::uint64_t>((config.warmup_s + config.window_s) * 1e6);
  scenario.seed = config.seed;
  return load::BuildSchedule(scenario);
}

Run::Run(const Workload& workload, const RunConfig& config)
    : workload_(workload),
      config_(config),
      traced_(!config.trace_dir.empty()),
      schedule_(ScheduleFor(workload, config)),
      busy_(workload.keys, 0),
      queued_(workload.keys),
      write_seq_(workload.keys, 0),
      pace_lag_us_(schedule_.size(), 0) {
  const std::size_t capacity =
      workload.open_loop
          ? schedule_.size()
          : static_cast<std::size_t>(kClosedLoopMaxOpsPerSec *
                                     (config.warmup_s + config.window_s));
  // Value-initialized, so every page is touched before set-up.
  log_.resize(workload.keys + capacity);
}

std::string Run::WriteEveryKey() {
  ok_ = 0;
  aborted_ = 0;
  failed_ = 0;
  for (std::uint32_t key = 0; key < workload_.keys; ++key) {
    log_[key] = Op{};
    log_[key].key = key;
    log_[key].is_write = true;
    log_[key].due_us = NowUs();
    Submit(key, nullptr);
  }
  const Clock::time_point deadline = Clock::now() + kSetupTimeout;
  while (ok_ + aborted_ + failed_ < workload_.keys) {
    if (Clock::now() > deadline) return "set-up writes did not complete";
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (ok_ != workload_.keys) return "a set-up write did not succeed";
  return "";
}

std::string Run::SetUp() {
  for (int i = 0; i < config_.setups; ++i) {
    cluster_.reset();
    const Clock::time_point start = Clock::now();
    cluster_ = std::make_unique<ShardedCluster>(
        ClusterOptions(workload_, config_.seed));
    cluster_->Start();
    if (std::string error = WriteEveryKey(); !error.empty()) return error;
    setup_s_.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return "";
}

void Run::Submit(std::size_t slot, std::uint64_t* submit_cpu_ns) {
  Op& op = log_[slot];
  const std::uint32_t key = op.key;
  const bool is_write = op.is_write;
  Value value = is_write ? ValueOf(key, op.seq) : Value{};
  const std::uint64_t cpu_start = submit_cpu_ns != nullptr ? ThreadCpuNs() : 0;
  const Clock::time_point start = Clock::now();
  op.submit_us = Us(start);
  // From here on the completion may run concurrently on a node thread;
  // it writes only done_us, state and (reads) seq.
  if (is_write) {
    cluster_->AsyncWrite(key, std::move(value),
                         [this, slot](const WriteOutcome& outcome) {
                           Complete(slot, outcome.status, nullptr);
                         });
  } else {
    cluster_->AsyncRead(key, [this, slot](const ReadOutcome& outcome) {
      Complete(slot, outcome.status, &outcome.value);
    });
  }
  if (traced_) {
    op.submit_ns = static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  if (submit_cpu_ns != nullptr) *submit_cpu_ns += ThreadCpuNs() - cpu_start;
}

void Run::Complete(std::size_t slot, OpStatus status, const Value* value) {
  const std::uint32_t now = NowUs();
  const std::uint64_t cpu_start = traced_ ? ThreadCpuNs() : 0;
  Op& op = log_[slot];
  op.done_us = now;
  op.state = StateOf(status);
  if (!op.is_write && status == OpStatus::kOk) op.seq = SeqOf(op.key, *value);
  const std::optional<std::size_t> next = NextOp(op);
  (status == OpStatus::kOk        ? ok_
   : status == OpStatus::kAborted ? aborted_
                                  : failed_)
      .fetch_add(1, std::memory_order_relaxed);
  if (traced_) {
    callback_cpu_ns_.fetch_add(ThreadCpuNs() - cpu_start,
                               std::memory_order_relaxed);
  }
  // The follow-up's router call is the program's work, not the
  // generator's, so it stays outside the bracket above.
  if (next) Submit(*next, nullptr);
}

std::optional<std::size_t> Run::NextOp(const Op& done) {
  if (workload_.open_loop) {
    std::lock_guard<std::mutex> lock(keys_mutex_);
    std::deque<std::size_t>& queue = queued_[done.key];
    if (queue.empty()) {
      busy_[done.key] = 0;
      return std::nullopt;
    }
    const std::size_t slot = queue.front();
    queue.pop_front();
    return slot;
  }
  if (!running_.load(std::memory_order_acquire)) return std::nullopt;
  const std::size_t slot =
      done.done_us < window_end_us_ ? next_slot_.fetch_add(1) : log_.size();
  if (slot >= log_.size()) {
    if (done.done_us < window_end_us_) log_full_ = true;
    clients_done_.fetch_add(1);
    return std::nullopt;
  }
  Op& next = log_[slot];
  next.key = done.key;
  next.is_write = !done.is_write;
  next.seq = next.is_write ? ++write_seq_[done.key] : 0;
  next.due_us = done.done_us;
  return slot;
}

Run::Sample Run::TakeSample() const {
  Sample sample;
  sample.usage = ProcessUsage();
  sample.protocol_cpu_ns = cluster_->protocol_cpu_ns();
  sample.frames = cluster_->frames_delivered();
  sample.main_cpu_ns = ThreadCpuNs();
  sample.main_submit_cpu_ns = main_submit_cpu_ns_;
  sample.callback_cpu_ns = callback_cpu_ns_.load(std::memory_order_relaxed);
  return sample;
}

void Run::InjectFault() {
  // Stamped before the first corruption is posted, so every op that
  // returned before the stamp ran on clean state.
  fault_at_us_ = NowUs();
  // One seed for every server: the garbage agrees across replicas, the
  // worst case Theorem 2 bounds, injected as src/load injects it.
  const std::uint64_t seed = config_.seed * 7919 + 1;
  for (std::size_t server = 0; server < kServers; ++server) {
    cluster_->CorruptServer(server, seed);
  }
}

void Run::RunOpenLoop() {
  struct Event {
    std::uint32_t at_us;
    std::function<void()> fire;
  };
  std::vector<Event> events;
  events.push_back({window_start_us_, [this] { at_start_ = TakeSample(); }});
  if (workload_.corrupt) {
    const double after_s = std::min(kFaultAfterS, config_.window_s / 2);
    events.push_back({window_start_us_ + static_cast<std::uint32_t>(after_s * 1e6),
                      [this] { InjectFault(); }});
  }
  events.push_back({window_end_us_, [this] { AtWindowEnd(); }});
  std::size_t next_event = 0;
  const auto fire_until = [&](std::uint32_t us) {
    for (; next_event < events.size() && events[next_event].at_us <= us;
         ++next_event) {
      SleepUntilUs(events[next_event].at_us);
      events[next_event].fire();
    }
  };

  // The default 50 us timer slack would make every arrival that late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::uint64_t* submit_cpu = traced_ ? &main_submit_cpu_ns_ : nullptr;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const std::size_t slot = workload_.keys + i;
    const std::uint32_t key = log_[slot].key;
    const std::uint32_t due = log_[slot].due_us;
    fire_until(due);
    SleepUntilUs(due);
    pace_lag_us_[i] = NowUs() - due;
    bool idle = false;
    {
      std::lock_guard<std::mutex> lock(keys_mutex_);
      idle = busy_[key] == 0;
      if (idle) {
        busy_[key] = 1;
      } else {
        queued_[key].push_back(slot);
      }
    }
    if (idle) Submit(slot, submit_cpu);
  }
  fire_until(window_end_us_);
}

void Run::RunClosedLoop() {
  next_slot_ = workload_.keys;
  for (std::uint32_t key = 0; key < workload_.keys; ++key) {
    const std::size_t slot = next_slot_.fetch_add(1);
    log_[slot].key = key;
    log_[slot].is_write = true;
    log_[slot].seq = ++write_seq_[key];
    log_[slot].due_us = run_start_us_;
    Submit(slot, traced_ ? &main_submit_cpu_ns_ : nullptr);
  }
  SleepUntilUs(window_start_us_);
  at_start_ = TakeSample();
  SleepUntilUs(window_end_us_);
  AtWindowEnd();
}

void Run::AtWindowEnd() {
  at_end_ = TakeSample();
  host_pass_ns_ = meter_->Stop();
  rss_end_mb_ = RssMb();
  threads_ = ThreadCount();
}

std::size_t Run::OpsUsed() const {
  return std::min(next_slot_.load(), log_.size());
}

void Run::Drain() {
  const Clock::time_point deadline = Clock::now() + kDrainTimeout;
  const auto drained = [this] {
    return workload_.open_loop
               ? ok_ + aborted_ + failed_ == log_.size()
               : clients_done_.load() == workload_.keys;
  };
  while (!drained() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RunReport Run::Execute() {
  RunReport report;
  std::optional<ProbeTimes> probes;
  if (traced_) probes = RunProbes();

  meter_.emplace();  // before the baseline, so its memory is not counted
  rss_base_mb_ = RssMb();
  report.error = SetUp();
  if (!report.error.empty()) return report;

  run_start_us_ = NowUs();
  window_start_us_ =
      run_start_us_ + static_cast<std::uint32_t>(config_.warmup_s * 1e6);
  window_end_us_ =
      window_start_us_ + static_cast<std::uint32_t>(config_.window_s * 1e6);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    Op& op = log_[workload_.keys + i];
    op.key = schedule_[i].key;
    op.is_write = schedule_[i].is_write;
    op.seq = op.is_write ? schedule_[i].seq + 1 : 0;  // set-up wrote 0
    op.due_us = run_start_us_ + static_cast<std::uint32_t>(schedule_[i].at_us);
  }
  if (workload_.open_loop) next_slot_ = log_.size();

  std::optional<CounterSampler> sampler;
  if (traced_) {
    sampler.emplace(
        [this] {
          const Usage usage = ProcessUsage();
          CounterSample sample;
          sample.t_us = NowUs();
          sample.frames_delivered = cluster_->frames_delivered();
          sample.protocol_cpu_ns = cluster_->protocol_cpu_ns();
          sample.process_cpu_ns = usage.cpu_ns;
          sample.ctx_switches = usage.ctx_switches;
          sample.ok = ok_.load(std::memory_order_relaxed);
          sample.aborted = aborted_.load(std::memory_order_relaxed);
          return sample;
        },
        kCounterPeriod);
  }
  running_.store(true, std::memory_order_release);
  if (workload_.open_loop) {
    RunOpenLoop();
  } else {
    RunClosedLoop();
  }
  Drain();
  // The flush-round counter is a plain field of each group's client node
  // and is not safe to read under traffic. The drain has quiesced it; a
  // no-op run on every node then orders the nodes' last writes before
  // the read.
  for (std::size_t g = 0; g < cluster_->n_groups(); ++g) {
    ThreadCluster& nodes = cluster_->group(g).cluster();
    for (NodeId id = 0; id < nodes.node_count(); ++id) nodes.RunOnNode(id, [] {});
  }
  flush_rounds_ = cluster_->node_flush_rounds();
  std::vector<CounterSample> counters;
  if (sampler) counters = sampler->Stop();
  cluster_->Stop();

  Analyze(report, probes, counters);
  return report;
}

void Run::Analyze(RunReport& report, const std::optional<ProbeTimes>& probes,
                  std::span<const CounterSample> counters) {
  const std::span<const Op> ops(log_.data(), OpsUsed());

  // Throughput counts completions inside the window; latencies cover
  // the ops that were due inside it.
  std::size_t ok_in_window = 0;
  std::vector<double> read_us, write_us, queue_us, await_us, submit_ns,
      lag_us;
  for (std::size_t slot = 0; slot < ops.size(); ++slot) {
    const Op& op = ops[slot];
    if (op.state == OpState::kPending) {
      ++report.tally.unreturned;
      continue;
    }
    if (op.state != OpState::kOk) continue;
    if (InWindow(op.done_us)) ++ok_in_window;
    if (!InWindow(op.due_us)) continue;
    (op.is_write ? write_us : read_us).push_back(op.done_us - op.due_us);
    queue_us.push_back(op.submit_us - op.due_us);
    await_us.push_back(op.done_us - SubmitEndUs(op));
    submit_ns.push_back(op.submit_ns);
    if (workload_.open_loop) {
      if (slot >= workload_.keys) {
        lag_us.push_back(pace_lag_us_[slot - workload_.keys]);
      }
    } else {
      lag_us.push_back(op.submit_us - op.due_us);
    }
  }
  report.tally.attempted = ops.size();
  report.tally.ok = ok_;
  report.tally.aborted = aborted_;
  report.tally.failed = failed_;

  const Clock::time_point check_start = Clock::now();
  report.verdict = Judge(ToHistory(ops), report.tally, fault_at_us_);
  const double check_s =
      std::chrono::duration<double>(Clock::now() - check_start).count();
  if (log_full_) {
    report.verdict.correct = false;
    report.verdict.reasons.push_back(
        "op log full: raise kClosedLoopMaxOpsPerSec");
  }
  if (fault_at_us_) {
    for (const Op& op : ops) {
      if (!op.is_write && op.state == OpState::kAborted &&
          op.submit_us >= *fault_at_us_ &&
          (!report.verdict.stabilized ||
           op.submit_us < report.verdict.stabilized_at_us)) {
        ++report.excused_aborts;
      }
    }
  }

  const double ops_done =
      static_cast<double>(std::max<std::size_t>(ok_in_window, 1));
  const double process_cpu_ns =
      static_cast<double>(at_end_.usage.cpu_ns - at_start_.usage.cpu_ns);
  const auto samples = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  // Scale what follows host speed to the reference host (meter.hpp):
  // latency and set-up time on every workload, and in a closed loop,
  // where the program sets the pace, throughput and CPU per op too. In
  // an open loop the generator sets throughput, and CPU per op moved
  // far less than host speed (README.md), so both stay as measured.
  report.host_pass_ns = host_pass_ns_;
  const double speed = ToReferenceHost(host_pass_ns_);
  const bool paced_by_program = !workload_.open_loop;
  const auto scaled = [](Metric metric, double factor) {
    metric.measured = metric.value;
    metric.value *= factor;
    return metric;
  };
  const Metric ops_per_sec{"ops_per_sec", static_cast<double>(ok_in_window) / config_.window_s,
                           "ops/s"};
  const Metric cpu_us_per_op{"cpu_us_per_op", process_cpu_ns / 1000.0 / ops_done, "us/op"};
  std::vector<Metric>& e2e = report.end_to_end;
  e2e.push_back(paced_by_program ? scaled(ops_per_sec, 1 / speed) : ops_per_sec);
  e2e.push_back(scaled({"read_p50_us", Quantile(read_us, 0.50), "us", samples(read_us)}, speed));
  e2e.push_back(scaled({"write_p50_us", Quantile(write_us, 0.50), "us", samples(write_us)}, speed));
  e2e.push_back(paced_by_program ? scaled(cpu_us_per_op, speed) : cpu_us_per_op);
  e2e.push_back(scaled({"setup_s", Quantile(setup_s_, 0.5), "s", samples(setup_s_)}, speed));
  e2e.push_back({"rss_mb", rss_end_mb_ - rss_base_mb_, "MB"});
  // Tails, as measured. Their ten-run spread on the open-loop workloads
  // is far wider than any bound (README.md), so they are not declared.
  report.printed.push_back({"read_p99_us", Quantile(read_us, 0.99), "us", samples(read_us)});
  report.printed.push_back({"write_p99_us", Quantile(write_us, 0.99), "us", samples(write_us)});
  if (!probes) return;

  // CPU split of the window. Benchmark callbacks run inside the
  // dispatch bracket, so they are moved from dispatch to the generator;
  // transport is the rest of the process (reactor, mailbox waits,
  // socket syscalls, router calls from the generator thread).
  const auto delta = [&](std::uint64_t Sample::*field) {
    return static_cast<double>(at_end_.*field - at_start_.*field);
  };
  const double callback_ns = delta(&Sample::callback_cpu_ns);
  const double gen_ns = delta(&Sample::main_cpu_ns) -
                        delta(&Sample::main_submit_cpu_ns) + callback_ns;
  const double dispatch_ns = delta(&Sample::protocol_cpu_ns) - callback_ns;
  const double transport_ns = process_cpu_ns - dispatch_ns - gen_ns;

  std::vector<Metric>& layer = report.per_layer;
  layer.push_back({"runtime.ctx_switches_per_op",
                   static_cast<double>(at_end_.usage.ctx_switches -
                                       at_start_.usage.ctx_switches) /
                       ops_done,
                   "1/op"});
  layer.push_back({"runtime.transport_cpu_us_per_op", transport_ns / 1000.0 / ops_done, "us/op"});
  layer.push_back({"runtime.threads", static_cast<double>(threads_), "count"});
  layer.push_back({"runtime.dispatch_cpu_us_per_op", dispatch_ns / 1000.0 / ops_done, "us/op"});
  layer.push_back({"runtime.frames_per_op", delta(&Sample::frames) / ops_done, "1/op"});
  layer.push_back({"core.ops_per_flush_round",
                   static_cast<double>(report.tally.ok) /
                       static_cast<double>(std::max<std::uint64_t>(flush_rounds_, 1)),
                   "ops/round"});
  layer.push_back({"router.submit_ns_p50", Quantile(submit_ns, 0.50), "ns", samples(submit_ns)});
  layer.push_back({"router.submit_ns_p99", Quantile(submit_ns, 0.99), "ns", samples(submit_ns)});
  layer.push_back({"op.queue_us_p50", Quantile(queue_us, 0.50), "us", samples(queue_us)});
  layer.push_back({"op.await_us_p50", Quantile(await_us, 0.50), "us", samples(await_us)});
  layer.push_back({"op.await_us_p99", Quantile(await_us, 0.99), "us", samples(await_us)});
  layer.push_back({"gen.lag_p99_us", Quantile(lag_us, 0.99), "us", samples(lag_us)});
  layer.push_back({"gen.cpu_us_per_op", gen_ns / 1000.0 / ops_done, "us/op"});
  layer.push_back({"spec.check_s", check_s, "s"});
  layer.push_back({"probe.net.encode_ns", probes->encode_ns, "ns"});
  layer.push_back({"probe.net.decode_ns", probes->decode_ns, "ns"});
  layer.push_back({"probe.labels.next_ns", probes->next_ns, "ns"});
  layer.push_back({"probe.labels.sanitize_ns", probes->sanitize_ns, "ns"});
  layer.push_back({"host.pass_ns", host_pass_ns_, "ns"});

  std::vector<TraceMark> marks = {{"window_start", window_start_us_},
                                  {"window_end", window_end_us_}};
  if (fault_at_us_) marks.push_back({"fault", *fault_at_us_});
  std::filesystem::create_directories(config_.trace_dir);
  const std::string path = config_.trace_dir + "/" + workload_.name + ".trace.json";
  if (!WriteChromeTrace(path, workload_.name, ops, kSpanStride, counters, marks)) {
    report.error = "cannot write " + path;
  }
}

}  // namespace

const std::vector<Workload>& Workloads() { return kWorkloads; }

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

RunReport RunWorkload(const Workload& workload, const RunConfig& config) {
  Run run(workload, config);
  return run.Execute();
}

}  // namespace sbft::suite
