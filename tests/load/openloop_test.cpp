// End-to-end open-loop driver tests over TCP loopback: a short
// burst stays regular under the per-key checker, and a mid-load
// transient corruption of every server stabilizes within the run with
// zero violations after the measured stabilization point (the
// engine's paper-facing measurement).
#include <gtest/gtest.h>

#include "load/driver.hpp"
#include "load/scenario.hpp"
#include "load/stabilization.hpp"
#include "spec/regular_checker.hpp"

namespace sbft::load {
namespace {

CheckOptions BaseCheck() {
  CheckOptions check;
  check.grandfathered_values = {Value{}};  // pre-first-write content
  return check;
}

TEST(OpenLoop, ShortBurstStaysRegular) {
  Scenario scenario = BaselineScenario(400.0, 300'000, 91);
  scenario.n_keys = 8;
  const LoadResult result = RunOpenLoop(scenario);

  ASSERT_GT(result.scheduled, 50u);
  EXPECT_EQ(result.unlaunched, 0u);
  EXPECT_EQ(result.pending, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_DOUBLE_EQ(result.completed_frac, 1.0);
  EXPECT_EQ(result.history.size(), result.scheduled);
  EXPECT_EQ(result.write_latency.count() + result.read_latency.count(),
            result.ok);

  CheckOptions check = BaseCheck();
  check.stabilized_from = result.first_write_done_us;
  const CheckReport report = CheckRegularPerKey(result.history, check);
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST(OpenLoop, HistoryTimestampsAreOrdered) {
  Scenario scenario = BaselineScenario(300.0, 200'000, 92);
  scenario.n_keys = 4;
  const LoadResult result = RunOpenLoop(scenario);
  for (const OpRecord& op : result.history.ops()) {
    if (op.result == OpRecord::Result::kPending) continue;
    EXPECT_LE(op.invoked_at, op.returned_at);
    EXPECT_LT(op.client, scenario.n_keys);
  }
}

TEST(OpenLoop, MidLoadCorruptionStabilizesUnderTraffic) {
  // Corrupt EVERY server's protocol state at t=50ms while 400 ops/s
  // keep flowing, then demand: (a) the run keeps completing ops, (b)
  // the measured stabilization point exists inside the run, (c) the
  // checker finds zero violations among reads from that point on.
  // The coordinated corruption seeds (one seed per event across all
  // servers) make the injected garbage agree, so post-fault reads can
  // be ANSWERED with fabricated values — the checker and the
  // stabilization search must still converge on a clean suffix.
  Scenario scenario = CorruptionScenario(400.0, 300'000, 93);
  scenario.n_keys = 8;
  scenario.corruptions = {{50'000, {}}};
  const LoadResult result = RunOpenLoop(scenario);

  ASSERT_EQ(result.corruption_times_us.size(), 1u);
  EXPECT_DOUBLE_EQ(result.completed_frac, 1.0);
  EXPECT_EQ(result.failed, 0u);
  ASSERT_GT(result.ok, 0u);

  const StabilizationReport stabilization = MeasureStabilization(
      result.history, result.corruption_times_us[0], BaseCheck());
  ASSERT_GT(stabilization.reads_after_corruption, 0u);
  EXPECT_TRUE(stabilization.stabilized)
      << "no clean suffix inside the observation window";

  // Zero violations after the measured stabilization point — by
  // construction of the binary search, but assert it end-to-end
  // through the public checker entry point.
  CheckOptions check = BaseCheck();
  check.stabilized_from = stabilization.stabilized_at_us;
  const CheckReport report = CheckRegularPerKey(result.history, check);
  EXPECT_TRUE(report.ok) << report.Summary();

  // And the window is bounded by the run itself.
  EXPECT_LE(stabilization.violation_window_us, result.run_duration_us);
}

TEST(OpenLoop, MidLoadCorruptionStabilizesBatched) {
  // Same corruption-under-traffic measurement on another seed: another
  // arrival schedule, so other ops share the mux's batch rounds when
  // the fault lands.
  Scenario scenario = CorruptionScenario(400.0, 300'000, 94);
  scenario.n_keys = 8;
  scenario.corruptions = {{50'000, {}}};
  const LoadResult result = RunOpenLoop(scenario);

  ASSERT_EQ(result.corruption_times_us.size(), 1u);
  EXPECT_DOUBLE_EQ(result.completed_frac, 1.0);
  EXPECT_EQ(result.failed, 0u);
  ASSERT_GT(result.ok, 0u);

  const StabilizationReport stabilization = MeasureStabilization(
      result.history, result.corruption_times_us[0], BaseCheck());
  ASSERT_GT(stabilization.reads_after_corruption, 0u);
  EXPECT_TRUE(stabilization.stabilized)
      << "no clean suffix inside the observation window";

  CheckOptions check = BaseCheck();
  check.stabilized_from = stabilization.stabilized_at_us;
  const CheckReport report = CheckRegularPerKey(result.history, check);
  EXPECT_TRUE(report.ok) << report.Summary();
  EXPECT_LE(stabilization.violation_window_us, result.run_duration_us);
}

TEST(Stabilization, DetectsDirtyPrefixOnSyntheticHistory) {
  // Synthetic single-key history: w1 then a stale read AFTER w2
  // completes (a genuine regularity violation), then clean reads. The
  // measured stabilization point must land after the dirty read and
  // the window must be positive.
  History history;
  auto add = [&](OpRecord::Kind kind, VirtualTime invoked, VirtualTime ret,
                 const char* value) {
    OpRecord op;
    op.kind = kind;
    op.result = OpRecord::Result::kOk;
    op.client = 0;
    op.invoked_at = invoked;
    op.returned_at = ret;
    const std::string text(value);
    op.value = Bytes(text.begin(), text.end());
    history.Add(op);
  };
  add(OpRecord::Kind::kWrite, 0, 10, "a");
  add(OpRecord::Kind::kWrite, 20, 30, "b");
  add(OpRecord::Kind::kRead, 40, 50, "a");  // stale: "b" superseded "a"
  add(OpRecord::Kind::kRead, 60, 70, "b");
  add(OpRecord::Kind::kRead, 80, 90, "b");

  const StabilizationReport report = MeasureStabilization(history, 0);
  EXPECT_TRUE(report.stabilized);
  EXPECT_EQ(report.stabilized_at_us, 41u);  // just past the dirty read
  EXPECT_EQ(report.violation_window_us, 41u);
  EXPECT_EQ(report.reads_after_corruption, 3u);
  EXPECT_EQ(report.excused_reads, 1u);
}

TEST(Stabilization, CleanHistoryHasZeroWindow) {
  History history;
  OpRecord write;
  write.kind = OpRecord::Kind::kWrite;
  write.result = OpRecord::Result::kOk;
  write.invoked_at = 0;
  write.returned_at = 10;
  write.value = Bytes{1};
  history.Add(write);
  OpRecord read;
  read.kind = OpRecord::Kind::kRead;
  read.result = OpRecord::Result::kOk;
  read.invoked_at = 20;
  read.returned_at = 30;
  read.value = Bytes{1};
  history.Add(read);

  const StabilizationReport report = MeasureStabilization(history, 15);
  EXPECT_TRUE(report.stabilized);
  EXPECT_EQ(report.violation_window_us, 0u);
  EXPECT_EQ(report.excused_reads, 0u);
}

TEST(Stabilization, NoReadsIsVacuous) {
  History history;
  const StabilizationReport report = MeasureStabilization(history, 0);
  EXPECT_FALSE(report.stabilized);
  EXPECT_EQ(report.reads_after_corruption, 0u);
}

}  // namespace
}  // namespace sbft::load
