// Open-loop adversarial load engine (experiment E12): offered-load
// sweeps and a scenario matrix against the threaded register cluster
// over TCP loopback (metric keys keep their "tcp." prefix).
//
// Unlike bench_throughput's closed loop (which only ever asks for what
// the cluster just delivered), every arm here FIXES the offered load:
// operations start at precomputed Poisson arrival times whether or not
// earlier ones finished, and latency is charged from the intended
// arrival (coordinated-omission-free; see docs/LOAD_TESTING.md).
//
// Three measurement families:
//   * latency-vs-offered-load sweep with a saturation finder — a point
//     is SUSTAINED when (almost) every scheduled op returned and the
//     achieved ok-rate tracks the offered rate; saturation_frac (the
//     fraction of swept points sustained) is scale-invariant and gated
//     by tools/bench_compare.py, absolute rates stay advisory;
//   * adversarial traffic shapes (Zipf hot keys, flash crowd, 90%
//     reads, slow links), each history validated by CheckRegular;
//   * mid-load transient corruption: every server's state is garbled
//     while traffic keeps flowing, and MeasureStabilization reports
//     how long until reads are provably regular again — the paper's
//     stabilization guarantee as a latency-style number.
//
// Arms are picked with bench_json.hpp's --only SUBSTR: only arms whose
// key contains it run (e.g. --only corruption).
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "load/driver.hpp"
#include "load/scenario.hpp"
#include "load/stabilization.hpp"
#include "spec/regular_checker.hpp"

using namespace sbft;
using namespace sbft::bench;

namespace {

/// A sweep point is sustained when (almost) everything scheduled came
/// back and the ok-rate tracked the offered rate. The 0.99/0.8 slack
/// absorbs drain-tail ops and scheduler hiccups without letting a
/// genuinely saturated point pass.
bool Sustained(const load::LoadResult& result, double offered) {
  return result.completed_frac >= 0.99 &&
         result.achieved_ops_per_sec >= 0.8 * offered;
}

void PointRow(const std::string& label, double offered,
              const load::LoadResult& result) {
  load::LatencyHistogram merged = result.write_latency;
  merged.Merge(result.read_latency);
  Row("%-22s %-9.0f | %-9.0f %-6.3f %-8llu %-8llu %-8llu %-6zu %-6zu",
      label.c_str(), offered, result.achieved_ops_per_sec,
      result.completed_frac,
      static_cast<unsigned long long>(merged.Percentile(0.5)),
      static_cast<unsigned long long>(merged.Percentile(0.99)),
      static_cast<unsigned long long>(merged.max()), result.aborted,
      result.failed + result.pending + result.unlaunched);
}

/// Shared metrics for every arm. completed_frac gates; the rest are
/// machine-dependent and advisory.
void CommonMetrics(JsonReport& report, const std::string& key,
                   double offered, const load::LoadResult& result) {
  report.Metric(key + ".offered_per_sec", offered, "ops/s");
  report.Metric(key + ".achieved_ops_per_sec", result.achieved_ops_per_sec,
                "ops/s");
  report.Metric(key + ".completed_frac", result.completed_frac, "frac");
  report.Metric(key + ".p99_write_us",
                static_cast<double>(result.write_latency.Percentile(0.99)),
                "us");
  report.Metric(key + ".p99_read_us",
                static_cast<double>(result.read_latency.Percentile(0.99)),
                "us");
}

/// Per-key regularity check over the run's history (each key is an
/// independent mux register; the stabilization point is the first
/// completed write, as in the soak tests). Returns the number of
/// violations found (capped).
std::size_t CheckHistory(const load::LoadResult& result) {
  CheckOptions check;
  check.stabilized_from = result.first_write_done_us;
  check.grandfathered_values = {Value{}};
  check.max_violations = 8;  // enough for triage output
  const CheckReport report = load::CheckRegularPerKey(result.history, check);
  if (!report.ok) {
    Row("  checker: %s", report.Summary().c_str());
  }
  return report.violations.size();
}

void RunSweep(JsonReport& report) {
  if (!report.WantArm("tcp.sweep")) return;
  // Rates chosen to bracket one-core capacity from below: every point
  // is sustainable on the baseline machine, so the gated trajectory
  // asserts "the whole sweep stays sustained" (saturation_frac = 1)
  // and the latency curve shows the approach to the knee.
  const std::vector<double> rates = {250, 500, 1000};
  const std::uint64_t duration_us = report.smoke() ? 300'000 : 1'500'000;

  std::size_t sustained = 0;
  double saturation_rate = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const load::Scenario scenario =
        load::BaselineScenario(rates[i], duration_us, 11 + i);
    const load::LoadResult result = load::RunOpenLoop(scenario);
    const std::string key = "tcp.sweep.p" + std::to_string(i);
    PointRow(key, rates[i], result);
    CommonMetrics(report, key, rates[i], result);
    if (Sustained(result, rates[i])) {
      ++sustained;
      saturation_rate = rates[i];
    }
  }
  // Saturation point: the highest offered rate the cluster sustained
  // (a lower bound when even the top point held). saturation_frac is
  // the scale-invariant, gated form.
  report.Metric("tcp.sweep.saturation_frac",
                static_cast<double>(sustained) /
                    static_cast<double>(rates.size()),
                "frac");
  report.Metric("tcp.sweep.saturation_ops_per_sec", saturation_rate,
                "ops/s");
  Row("%-22s sustained %zu/%zu points, saturation >= %.0f ops/s",
      "tcp.sweep", sustained, rates.size(), saturation_rate);
}

void RunScenarioArms(JsonReport& report) {
  const std::uint64_t duration_us = report.smoke() ? 400'000 : 2'000'000;

  // Rates per arm sit well under one-core capacity: these arms measure
  // traffic SHAPE effects and checker verdicts, not the saturation
  // knee (the sweep above does that).
  std::vector<load::Scenario> arms;
  arms.push_back(load::ZipfHotScenario(400, duration_us, 21));
  arms.push_back(load::FlashCrowdScenario(200, duration_us, 22));
  arms.push_back(load::ReadHeavyScenario(400, duration_us, 23));
  arms.push_back(load::SlowLinkScenario(200, duration_us, /*delay_us=*/2000,
                                        24));
  arms.push_back(load::CorruptionScenario(300, duration_us, 25));

  for (const load::Scenario& scenario : arms) {
    const std::string key = "tcp." + scenario.name;
    if (!report.WantArm(key)) continue;
    const load::LoadResult result = load::RunOpenLoop(scenario);
    const double offered = scenario.phases.empty()
                               ? scenario.rate_ops_per_sec
                               : 0;  // profile: offered varies by phase
    PointRow(key, offered, result);
    CommonMetrics(report, key,
                  offered > 0 ? offered : scenario.rate_ops_per_sec, result);

    if (scenario.corruptions.empty()) {
      const std::size_t violations = CheckHistory(result);
      report.Metric(key + ".violations", static_cast<double>(violations),
                    "count");
      continue;
    }

    // Corruption arm: measure the stabilization point under traffic.
    const std::uint64_t corruption_at =
        result.corruption_times_us.empty() ? scenario.corruptions[0].at_us
                                           : result.corruption_times_us[0];
    CheckOptions base;
    base.grandfathered_values = {Value{}};
    const load::StabilizationReport stabilization =
        load::MeasureStabilization(result.history, corruption_at, base);
    report.Metric(key + ".stabilize_failed",
                  stabilization.stabilized ? 0.0 : 1.0, "count");
    report.Metric(key + ".violation_window_us",
                  static_cast<double>(stabilization.violation_window_us),
                  "us");
    report.Metric(key + ".reads_after_corruption",
                  static_cast<double>(stabilization.reads_after_corruption),
                  "reads");
    report.Metric(key + ".excused_reads",
                  static_cast<double>(stabilization.excused_reads), "reads");
    Row("  corruption @%llu us: stabilized=%d window=%llu us "
        "(excused %zu of %zu post-corruption reads)",
        static_cast<unsigned long long>(corruption_at),
        stabilization.stabilized ? 1 : 0,
        static_cast<unsigned long long>(stabilization.violation_window_us),
        stabilization.excused_reads, stabilization.reads_after_corruption);
  }
}

/// Sharded-deployment arms (E15): a G=2 offered-load sweep and the
/// live-growth scenario. Regularity is gated at zero violations on
/// every arm; throughput stays advisory like everywhere else.
void RunShardedArms(JsonReport& report) {
  const std::uint64_t duration_us = report.smoke() ? 300'000 : 1'500'000;

  if (report.WantArm("tcp.g2.sweep")) {
    const std::vector<double> rates = {250, 500};
    std::size_t sustained = 0;
    double saturation_rate = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const load::Scenario scenario =
          load::ShardedScenario(2, rates[i], duration_us, 31 + i);
      const load::LoadResult result = load::RunOpenLoop(scenario);
      const std::string key = "tcp.g2.sweep.p" + std::to_string(i);
      PointRow(key, rates[i], result);
      CommonMetrics(report, key, rates[i], result);
      report.Metric(key + ".violations",
                    static_cast<double>(CheckHistory(result)), "count");
      report.Metric(key + ".failed",
                    static_cast<double>(result.failed), "ops");
      if (Sustained(result, rates[i])) {
        ++sustained;
        saturation_rate = rates[i];
      }
    }
    report.Metric("tcp.g2.sweep.saturation_frac",
                  static_cast<double>(sustained) /
                      static_cast<double>(rates.size()),
                  "frac");
    Row("%-22s sustained %zu/%zu points, saturation >= %.0f ops/s",
        "tcp.g2.sweep", sustained, rates.size(), saturation_rate);
  }

  // Live growth: one group serves the first third of the run, then
  // AddGroup installs the next shard-map epoch under traffic. The
  // per-key checker must pass straight through the bump — the
  // drain-and-handoff read anchor is what's under test.
  if (report.WantArm("tcp.g2_migrate")) {
    const load::Scenario scenario =
        load::MigrateScenario(250, duration_us, 35);
    const load::LoadResult result = load::RunOpenLoop(scenario);
    const std::string key = "tcp.g2_migrate";
    PointRow(key, scenario.rate_ops_per_sec, result);
    CommonMetrics(report, key, scenario.rate_ops_per_sec, result);
    report.Metric(key + ".violations",
                  static_cast<double>(CheckHistory(result)), "count");
    report.Metric(key + ".failed", static_cast<double>(result.failed),
                  "ops");
    report.Metric(key + ".final_groups",
                  static_cast<double>(result.final_groups), "groups");
    report.Metric(key + ".shard_epoch",
                  static_cast<double>(result.final_epoch), "epoch");
    Row("  group add @%llu us -> %zu groups (epoch %llu), "
        "%zu keys still read-anchored to their old group at run end",
        static_cast<unsigned long long>(result.group_add_time_us),
        result.final_groups,
        static_cast<unsigned long long>(result.final_epoch),
        result.keys_awaiting_handoff);
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report("load", ParseBenchArgs(argc, argv));
  Header("E12", "open-loop adversarial load (offered vs sustained)");
  Row("%-22s %-9s | %-9s %-6s %-8s %-8s %-8s %-6s %-6s", "arm", "offered",
      "ok/s", "compl", "p50 us", "p99 us", "max us", "abort", "lost");

  RunSweep(report);
  RunScenarioArms(report);
  RunShardedArms(report);

  Row("%s", "\nexpected shape: p99 grows with offered load and explodes "
            "past the knee (completed_frac < 1 marks overload); Zipf and "
            "flash arms trade p99 for the same completed_frac; the "
            "corruption arm stabilizes within the run, with a bounded "
            "violation window and zero violations after it.");
  return report.Flush() ? 0 : 1;
}
