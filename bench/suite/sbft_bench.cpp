// sbft_bench: the benchmark every performance claim is measured with.
//
//   sbft_bench [--workload NAME] [--seed N] [--seconds S] [--smoke]
//              [--trace DIR]
//
// Without --workload every workload runs, each in a fresh child process
// so no memory or warm state leaks between them. --smoke shortens the
// window to 2 s and the warm-up to 0.5 s. --trace DIR adds the
// per-layer metrics and writes DIR/<workload>.trace.json.
//
// Each workload prints its metrics as <workload>.<name> with units and
// sample counts, then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metric names are exactly those BENCHMARK.json declares (the
// end_to_end ones, plus the per_layer ones in a traced run).
//
// Exit status: 0 when every run is correct, 1 when a run failed its
// correctness gates (its metrics are still printed), 2 on a usage error
// or a run that could not be measured.
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine.hpp"
#include "meter.hpp"

extern char** environ;

using namespace sbft::suite;

namespace {

struct Args {
  std::string workload;  // empty = all, each in a child process
  RunConfig config;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "sbft_bench: %s\nusage: sbft_bench [--workload NAME] "
               "[--seed N] [--seconds S] [--smoke] [--trace DIR]\n",
               message);
  std::exit(2);
}

double ParsePositive(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0) || !std::isfinite(value)) {
    Usage("expected a positive number");
  }
  return value;
}

Args Parse(int argc, char** argv) {
  Args args;
  bool smoke = false;
  double seconds = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.config.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      seconds = ParsePositive(value);
    } else if (flag == "--trace") {
      args.config.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (smoke) {
    args.config.window_s = 2;
    args.config.warmup_s = 0.5;
    args.config.setups = 3;
  }
  if (seconds > 0) args.config.window_s = seconds;
  if (!args.workload.empty() && FindWorkload(args.workload) == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  return args;
}

/// Runs every workload in its own child process; returns the worst exit
/// status.
int RunAll(int argc, char** argv) {
  int worst = 0;
  for (const Workload& workload : Workloads()) {
    std::vector<char*> child(argv, argv + argc);
    std::string flag = "--workload";
    std::string name = workload.name;
    child.push_back(flag.data());
    child.push_back(name.data());
    child.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, child.data(),
                    environ) != 0) {
      std::perror("sbft_bench: posix_spawn");
      return 2;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      std::perror("sbft_bench: waitpid");
      return 2;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
    worst = std::max(worst, code);
  }
  return worst;
}

void PrintMetric(const std::string& workload, const Metric& metric) {
  std::printf("  %-40s %14.3f %-6s", (workload + "." + metric.name).c_str(),
              metric.value, metric.unit.c_str());
  if (metric.samples > 0) {
    std::printf(" (n=%llu)", static_cast<unsigned long long>(metric.samples));
  }
  if (metric.measured) std::printf(" (measured %.3f)", *metric.measured);
  std::printf("\n");
}

void PrintJsonMetrics(const std::vector<Metric>& metrics, bool* first) {
  for (const Metric& metric : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                *first ? "" : ", ", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    *first = false;
  }
}

int RunOne(const Workload& workload, const RunConfig& config) {
  const bool traced = !config.trace_dir.empty();
  std::printf("sbft_bench workload=%s seed=%llu warmup_s=%g window_s=%g "
              "traced=%d\n",
              workload.name, static_cast<unsigned long long>(config.seed),
              config.warmup_s, config.window_s, traced ? 1 : 0);
  const RunReport report = RunWorkload(workload, config);
  if (!report.error.empty()) {
    std::fprintf(stderr, "sbft_bench %s: %s\n", workload.name,
                 report.error.c_str());
    return 2;
  }
  const std::string name = workload.name;
  for (const Metric& metric : report.end_to_end) PrintMetric(name, metric);
  for (const Metric& metric : report.per_layer) PrintMetric(name, metric);
  for (const Metric& metric : report.printed) PrintMetric(name, metric);
  std::printf("  %-40s %14.3f x      (meter pass %.0f ns, reference %.0f ns; "
              "times scaled by %.3f)\n",
              (name + ".host_speed").c_str(),
              report.host_pass_ns > 0 ? kReferencePassNs / report.host_pass_ns : 0,
              report.host_pass_ns, kReferencePassNs,
              ToReferenceHost(report.host_pass_ns));

  const Tally& tally = report.tally;
  const std::size_t failed = tally.failed + tally.unreturned + tally.aborted -
                             report.excused_aborts;
  std::printf("  %-40s %14.6f (attempted %zu: ok %zu, aborted %zu, "
              "failed %zu, unreturned %zu)\n",
              (name + ".failed_frac").c_str(),
              static_cast<double>(tally.aborted + tally.failed +
                                  tally.unreturned) /
                  static_cast<double>(std::max<std::size_t>(tally.attempted, 1)),
              tally.attempted, tally.ok, tally.aborted, tally.failed,
              tally.unreturned);
  std::printf("  %-40s %14zu\n", (name + ".violations").c_str(),
              report.verdict.violations);
  if (workload.corrupt) {
    std::printf("  %-40s %14.3f ms     (stabilized %s; %zu aborted reads "
                "inside the window, excused)\n",
                (name + ".stabilize_ms").c_str(), report.verdict.stabilize_ms,
                report.verdict.stabilized ? "yes" : "NO",
                report.excused_aborts);
  }
  for (const std::string& reason : report.verdict.reasons) {
    std::printf("  INCORRECT: %s\n", reason.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.verdict.correct ? "true" : "false", tally.attempted,
              failed);
  bool first = true;
  PrintJsonMetrics(report.end_to_end, &first);
  PrintJsonMetrics(report.per_layer, &first);
  std::printf("}}\n");
  std::fflush(stdout);
  return report.verdict.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.workload.empty()) return RunAll(argc, argv);
  return RunOne(*FindWorkload(args.workload), args.config);
}
