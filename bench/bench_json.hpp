// Shared machine-readable output for the bench_* binaries.
//
// Every bench accepts:
//   --json <path>   write the metrics recorded via JsonReport::Metric to
//                   <path> as a small stable JSON document (the BENCH_*.json
//                   trajectory files are produced this way);
//   --smoke         reduced iteration counts for CI smoke runs;
//   --jobs N        worker threads for benches whose sweeps run
//                   independent sims (0 = one per hardware core).
//                   Metrics are identical for every N.
//   --clients LIST  comma-separated logical-client counts for benches
//                   with a concurrency sweep (e.g. --clients 1,8,64,256);
//                   empty means the bench's default sweep.
//   --cooldown-ms N idle sleep between sweep arms. An arm inherits the
//                   previous arm's thermal/scheduler state (warmed
//                   caches, CPU governor, lingering TIME_WAIT sockets);
//                   a cool-down pause makes in-sweep points comparable
//                   to isolated single-arm runs. Recorded into the JSON
//                   as `sweep.cooldown_ms` so a committed baseline says
//                   which mode produced it.
//   --only SUBSTR   run only arms whose metric key contains SUBSTR —
//                   full process isolation for one arm (the strongest
//                   form of the above: fresh process, no prior arms).
//
// The JSON is deliberately timestamp-free so artifacts diff cleanly;
// provenance (commit, date) lives in git history / CI metadata.
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace sbft::bench {

struct BenchArgs {
  std::string json_path;  // empty: no JSON output
  bool smoke = false;
  std::size_t jobs = 1;   // 0 = one per hardware core
  std::vector<std::size_t> clients;  // empty: bench default sweep
  std::size_t cooldown_ms = 0;
  std::string only;  // empty: run every arm
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--cooldown-ms") == 0 && i + 1 < argc) {
      args.cooldown_ms = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      args.only = argv[++i];
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      const char* p = argv[++i];
      while (*p != '\0') {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(p, &end, 10);
        if (end == p) break;  // not a number: stop parsing the list
        if (v > 0) args.clients.push_back(static_cast<std::size_t>(v));
        p = (*end == ',') ? end + 1 : end;
      }
    }
  }
  return args;
}

/// Collects (name, value, unit) rows and writes them as JSON on Flush.
/// Metric names use dotted lowercase ("hotpath.allocs_per_op").
class JsonReport {
 public:
  JsonReport(std::string bench, BenchArgs args)
      : bench_(std::move(bench)), args_(std::move(args)) {}

  void Metric(const std::string& name, double value,
              const std::string& unit = "") {
    metrics_.push_back({name, value, unit});
  }

  /// Write the report if --json was given. Returns false on I/O failure.
  bool Flush() const {
    if (args_.json_path.empty()) return true;
    std::ofstream out(args_.json_path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n",
                   args_.json_path.c_str());
      return false;
    }
    out << "{\n  \"bench\": \"" << bench_ << "\",\n  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Row& row = metrics_[i];
      char value[64];
      std::snprintf(value, sizeof(value), "%.6g", row.value);
      out << "    {\"name\": \"" << row.name << "\", \"value\": " << value
          << ", \"unit\": \"" << row.unit << "\"}"
          << (i + 1 < metrics_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

  [[nodiscard]] bool smoke() const { return args_.smoke; }
  [[nodiscard]] std::size_t jobs() const { return args_.jobs; }
  [[nodiscard]] const std::vector<std::size_t>& clients() const {
    return args_.clients;
  }
  [[nodiscard]] std::size_t cooldown_ms() const { return args_.cooldown_ms; }
  /// Arm filter: true when `key` should run under --only (always true
  /// without the flag).
  [[nodiscard]] bool WantArm(const std::string& key) const {
    return args_.only.empty() || key.find(args_.only) != std::string::npos;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };

  std::string bench_;
  BenchArgs args_;
  std::vector<Row> metrics_;
};

}  // namespace sbft::bench
