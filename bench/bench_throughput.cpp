// E7/E15: wall-clock throughput and latency on the threaded runtime
// (real OS threads, TCP loopback; metric keys keep their "tcp" part),
// n sweep, logical-client sweep, and sharded scale-out arms. This is
// the "threads/sockets" arm of the reproduction — absolute numbers are
// machine-dependent; the shapes to check are the linear-in-n message
// cost showing up as latency, throughput scaling with pipelined
// clients, and (g<G>.* arms) aggregate throughput across G independent
// register groups behind the consistent-hash router.
//
// Every arm drives the serving path — ShardedCluster (G >= 1 groups),
// each group's MuxClient node hosting all its logical clients as
// independent registers, batching and sharing FLUSH rounds — with an
// asynchronous closed loop: each logical client keeps exactly one
// operation in flight and issues the next from the completion callback.
// Per-op latency is charged from the op's INTENDED start — the previous
// op's completion stamp, taken inside the completion callback — so the
// callback-to-injection gap is part of the next op's latency rather
// than silently omitted (the coordinated-omission trap: stamping at
// send time lets a stalled client under-report exactly when the
// system is slow). p50/p99 therefore include queueing, and come from
// the shared log-linear histogram (load/histogram.hpp, ~3% worst-case
// quantization), whose math tests/load/histogram_test.cpp pins down.
//
// Every arm also records the full operation history and runs the
// per-key regular-register checker over it, reporting the violation
// count as a gated metric: neither load nor scale-out may cost
// regularity. Live growth under traffic (AddGroup mid-load) is measured
// by bench_load's tcp.g2_migrate arm.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "load/histogram.hpp"
#include "load/stabilization.hpp"
#include "runtime/sharded_cluster.hpp"

using namespace sbft;
using namespace sbft::bench;

namespace {

using Clock = std::chrono::steady_clock;

struct Numbers {
  double ops_per_sec = 0;
  double p50_us = 0;
  double p99_us = 0;
  long completed = 0;
  long failed = 0;
  /// Thread-CPU microseconds inside automaton dispatch per completed
  /// op, summed over all node threads (ThreadCluster::protocol_cpu_ns):
  /// the protocol-floor observable, with mailbox waits and socket
  /// syscalls excluded.
  double protocol_cpu_us_per_op = 0;
  /// Per-key regular-register violations over the recorded history.
  long regular_violations = 0;
};

/// Closed-loop load generator over the async register API. Each
/// logical client runs `pairs` write+read pairs. Completion callbacks
/// arrive on the mux client node threads — one per group — so the
/// histogram and the history are mutex-guarded (an uncontended lock per
/// completed op at G = 1, noise against the ~tens-of-µs protocol round).
class ClosedLoop {
 public:
  ClosedLoop(ShardedCluster& cluster, std::size_t n_clients, int pairs)
      : cluster_(cluster), n_clients_(n_clients), pairs_(pairs) {}

  Numbers Run() {
    t_begin_ = Clock::now();
    // Every client's first op is intended to start at the loop start;
    // injection order skew across clients is queueing, and counts.
    for (std::size_t c = 0; c < n_clients_; ++c) InjectWrite(c, 0, t_begin_);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_cv_.wait(lock, [this] { return done_clients_ == n_clients_; });
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t_begin_).count();

    Numbers numbers;
    numbers.completed = static_cast<long>(histogram_.count());
    numbers.failed = failed_.load();
    numbers.ops_per_sec = static_cast<double>(numbers.completed) / seconds;
    numbers.p50_us = static_cast<double>(histogram_.Percentile(0.5));
    numbers.p99_us = static_cast<double>(histogram_.Percentile(0.99));
    return numbers;
  }

  /// The recorded history. Stable once Run() returned — every client
  /// has finished.
  [[nodiscard]] const History& history() const { return history_; }

 private:
  void InjectWrite(std::size_t c, int i, Clock::time_point intended) {
    const std::string text = "c" + std::to_string(c) + "#" + std::to_string(i);
    Value value(text.begin(), text.end());
    cluster_.AsyncWrite(c, value,
                        [this, c, i, intended, value](
                            const WriteOutcome& outcome) mutable {
                          // One stamp: this op's completion AND the
                          // next op's intended start.
                          const auto now = Clock::now();
                          Record(c, /*is_write=*/true, intended, now,
                                 outcome.status, std::move(value));
                          InjectRead(c, i, now);
                        });
  }

  void InjectRead(std::size_t c, int i, Clock::time_point intended) {
    cluster_.AsyncRead(c, [this, c, i,
                           intended](const ReadOutcome& outcome) {
      const auto now = Clock::now();
      Record(c, /*is_write=*/false, intended, now, outcome.status,
             outcome.value);
      if (i + 1 < pairs_) {
        InjectWrite(c, i + 1, now);
        return;
      }
      std::lock_guard<std::mutex> lock(mutex_);
      ++done_clients_;
      done_cv_.notify_one();
    });
  }

  void Record(std::size_t c, bool is_write, Clock::time_point intended,
              Clock::time_point now, OpStatus status, Value value) {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(now - intended)
            .count();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      histogram_.Record(us > 0 ? static_cast<std::uint64_t>(us) : 0);
      OpRecord rec;
      rec.kind = is_write ? OpRecord::Kind::kWrite : OpRecord::Kind::kRead;
      rec.result = status == OpStatus::kOk ? OpRecord::Result::kOk
                   : status == OpStatus::kAborted
                       ? OpRecord::Result::kAborted
                       : OpRecord::Result::kFailed;
      rec.client = static_cast<std::uint32_t>(c);
      rec.invoked_at = StampUs(intended);
      rec.returned_at = StampUs(now);
      if (is_write || status == OpStatus::kOk) rec.value = std::move(value);
      history_.Add(std::move(rec));
    }
    if (status != OpStatus::kOk) failed_.fetch_add(1);
  }

  [[nodiscard]] std::uint64_t StampUs(Clock::time_point t) const {
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(t - t_begin_)
            .count();
    return us > 0 ? static_cast<std::uint64_t>(us) : 0;
  }

  ShardedCluster& cluster_;
  std::size_t n_clients_;
  int pairs_;
  Clock::time_point t_begin_;
  load::LatencyHistogram histogram_;
  History history_;
  std::atomic<long> failed_{0};
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t done_clients_ = 0;
};

/// One arm: `groups` independent register groups (each its own
/// n-server quorum system) behind the consistent-hash router, closed
/// loop over `n_clients` keys spread across them. Records the history
/// and runs the per-key checker.
Numbers RunShardedArm(std::uint32_t n, std::size_t groups,
                      std::size_t n_clients, int pairs_per_client) {
  ShardedCluster::Options options;
  options.group.config = ProtocolConfig::ForServers(n);
  options.group.n_clients = n_clients;
  options.n_groups = groups;
  ShardedCluster cluster(options);
  cluster.Start();

  ClosedLoop loop(cluster, n_clients, pairs_per_client);
  Numbers numbers = loop.Run();
  const std::uint64_t cpu_ns = cluster.protocol_cpu_ns();
  cluster.Stop();
  if (numbers.completed > 0) {
    numbers.protocol_cpu_us_per_op =
        static_cast<double>(cpu_ns) / 1000.0 /
        static_cast<double>(numbers.completed);
  }
  // Load and scale-out must not cost regularity: each key's closed loop
  // starts with a write, so no grandfathered initial value is needed.
  CheckOptions check;
  check.max_violations = 8;
  const CheckReport report = load::CheckRegularPerKey(loop.history(), check);
  numbers.regular_violations = static_cast<long>(report.violations.size());
  return numbers;
}

/// Pairs per logical client: a fixed total-op budget divided across
/// clients (clamped), so sweeps finish in bounded wall-clock while the
/// big-c points still run thousands of ops.
int PairsFor(std::size_t n_clients, bool smoke) {
  const int budget = smoke ? 64 : 1024;
  const int cap = smoke ? 24 : 128;
  const int floor = smoke ? 2 : 8;
  return std::clamp(budget / static_cast<int>(n_clients), floor, cap);
}

struct Point {
  std::uint32_t n;
  std::size_t clients;
  std::size_t groups = 1;
};

/// Metric-key prefix of an arm, e.g. "tcp.n16.c64" or "g4.tcp.n16.c256".
/// The g<G> family prefix is what bench_compare groups sharded arms by.
std::string KeyFor(const Point& point) {
  std::string key;
  if (point.groups > 1) key += "g" + std::to_string(point.groups) + ".";
  key += "tcp.n" + std::to_string(point.n);
  key += ".c" + std::to_string(point.clients);
  return key;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report("throughput", ParseBenchArgs(argc, argv));
  Header("E7", "threaded runtime throughput (ops = writes+reads)");
  Row("%-4s %-8s %-22s | %-12s %-10s %-10s %-7s", "n", "clients",
      "transport", "ops/s", "p50 us", "p99 us", "failed");

  std::vector<Point> points;
  std::set<std::string> seen;
  auto add = [&](const Point& point) {
    if (seen.insert(KeyFor(point)).second) points.push_back(point);
  };
  // n sweep, kept small at c=1: sockets * n^2 on one box. n=16 is the
  // worst case the trajectory tracks (256 sockets, the paper's largest
  // sweep point); its failed count guards against accept-backlog drops.
  for (std::uint32_t n : {6u, 11u, 16u}) {
    add({n, 1});
  }

  // High-concurrency sweep at n=16: pipelined logical clients sharing
  // MuxBatch rounds and one node-level FLUSH per window.
  const std::vector<std::size_t> sweep =
      report.clients().empty() ? std::vector<std::size_t>{1, 8, 64, 256}
                               : report.clients();
  for (std::size_t clients : sweep) {
    add({16, clients});
  }
  // Sharded scale-out arms (metric prefix "g<G>."): EQUAL total
  // clients spread over G independent groups — the E15 G-scaling
  // curve against the tcp.n16.c256 single-group arm.
  // On a single-core box these measure router + composition overhead
  // (every group's node threads timeshare one core); linear aggregate
  // scaling needs one core per group's worth of protocol work.
  add({16, 256, /*groups=*/2});
  add({16, 256, /*groups=*/4});

  for (const Point& point : points) {
    const std::string key = KeyFor(point);
    if (!report.WantArm(key)) continue;
    const int pairs = PairsFor(point.clients, report.smoke());
    const Numbers numbers =
        RunShardedArm(point.n, point.groups, point.clients, pairs);
    const std::string label =
        key.substr(0, key.rfind(".n" + std::to_string(point.n)));
    Row("%-4u %-8zu %-22s | %-12.0f %-10.0f %-10.0f %-7ld", point.n,
        point.clients, label.c_str(), numbers.ops_per_sec, numbers.p50_us,
        numbers.p99_us, numbers.failed);
    report.Metric(key + ".ops_per_sec", numbers.ops_per_sec, "ops/s");
    report.Metric(key + ".p50_us", numbers.p50_us, "us");
    report.Metric(key + ".p99_us", numbers.p99_us, "us");
    report.Metric(key + ".failed", static_cast<double>(numbers.failed),
                  "ops");
    report.Metric(key + ".protocol_cpu_us_per_op",
                  numbers.protocol_cpu_us_per_op, "us/op");
    // Scale-invariant completeness: 1.0 means every attempted op
    // finished, so smoke and full runs compare against one baseline.
    const double frac =
        numbers.completed == 0
            ? 0.0
            : static_cast<double>(numbers.completed - numbers.failed) /
                  static_cast<double>(numbers.completed);
    report.Metric(key + ".completed_frac", frac, "frac");
    report.Metric(key + ".regular_violations",
                  static_cast<double>(numbers.regular_violations),
                  "violations");
    if (report.cooldown_ms() > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(report.cooldown_ms()));
    }
  }

  // Provenance: which sweep mode produced these numbers (0 = arms ran
  // back-to-back; >0 = cool-down pause between arms, comparable to
  // isolated runs). Committed baselines carry this so a reader knows
  // how each point was taken.
  report.Metric("sweep.cooldown_ms",
                static_cast<double>(report.cooldown_ms()), "ms");

  Row("%s", "\nexpected shape: latency grows roughly linearly with n "
            "(Theta(n) frames/op on one core); pipelined clients raise "
            "throughput until a core saturates, then p99 grows with c "
            "while ops/s plateaus; no failed ops and zero "
            "regular_violations at any sweep point; g<G> aggregate ops/s "
            "scales with spare cores (flat on a single-core box).");
  return report.Flush() ? 0 : 1;
}
