#include "meter.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

namespace sbft::suite {
namespace {

/// 256 KiB. Between passes the core runs other threads, so each pass
/// reloads the table through the cache levels the host shares; of the
/// fixed passes tried, this one tracked the program's speed most closely.
constexpr std::size_t kTableWords = std::size_t{1} << 15;
constexpr int kUpdatesPerPass = 20'000;
constexpr std::chrono::milliseconds kPeriod{50};

double TimePass(std::vector<std::uint64_t>& table) {
  static volatile std::uint64_t sink = 0;
  const std::uint64_t start = ThreadCpuNs();
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a
  for (int i = 0; i < kUpdatesPerPass; ++i) {
    hash = (hash ^ static_cast<std::uint64_t>(i)) * 1099511628211ull;
    table[hash & (kTableWords - 1)] += hash;
  }
  sink = sink + hash;
  return static_cast<double>(ThreadCpuNs() - start);
}

}  // namespace

double ToReferenceHost(double pass_ns) {
  return pass_ns > 0 ? std::pow(kReferencePassNs / pass_ns, kProgramElasticity) : 1;
}

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

HostMeter::HostMeter()
    : table_(kTableWords, 0), sampler_([this] { return TimePass(table_); }, kPeriod) {}

double HostMeter::Stop() {
  std::vector<double> passes = sampler_.Stop();
  if (passes.empty()) return 0;
  const auto middle = passes.begin() + static_cast<std::ptrdiff_t>(passes.size() / 2);
  std::nth_element(passes.begin(), middle, passes.end());
  return *middle;
}

}  // namespace sbft::suite
