// The correctness gates sbft_bench exits 1 on, fed synthetic histories.
#include "verdict.hpp"

#include <gtest/gtest.h>

namespace sbft::suite {
namespace {

OpRecord Write(std::uint32_t key, std::uint32_t seq, VirtualTime invoked,
               VirtualTime returned) {
  OpRecord op;
  op.kind = OpRecord::Kind::kWrite;
  op.result = OpRecord::Result::kOk;
  op.client = key;
  op.invoked_at = invoked;
  op.returned_at = returned;
  op.value = ValueOf(key, seq);
  return op;
}

OpRecord Read(std::uint32_t key, Value value, VirtualTime invoked,
              VirtualTime returned) {
  OpRecord op;
  op.kind = OpRecord::Kind::kRead;
  op.result = OpRecord::Result::kOk;
  op.client = key;
  op.invoked_at = invoked;
  op.returned_at = returned;
  op.value = std::move(value);
  return op;
}

Tally AllOk(const History& history) {
  return Tally{history.size(), history.size(), 0, 0, 0};
}

/// Two keys, each written twice then read; `stale` makes key 1's read
/// return its superseded first write.
History TwoKeys(bool stale) {
  History history;
  for (std::uint32_t key = 0; key < 2; ++key) {
    history.Add(Write(key, 0, 0, 10));
    history.Add(Write(key, 1, 20, 30));
    history.Add(Read(key, ValueOf(key, stale && key == 1 ? 0 : 1), 40, 50));
  }
  return history;
}

TEST(SuiteVerdict, CleanHistoryPasses) {
  const History history = TwoKeys(/*stale=*/false);
  const Verdict verdict = Judge(history, AllOk(history), std::nullopt);
  EXPECT_TRUE(verdict.correct);
  EXPECT_EQ(verdict.violations, 0u);
}

TEST(SuiteVerdict, PlantedStaleReadFails) {
  const History history = TwoKeys(/*stale=*/true);
  const Verdict verdict = Judge(history, AllOk(history), std::nullopt);
  EXPECT_FALSE(verdict.correct);
  EXPECT_EQ(verdict.violations, 1u);
}

TEST(SuiteVerdict, AccountingMismatchFails) {
  const History history = TwoKeys(/*stale=*/false);
  Tally tally = AllOk(history);
  ++tally.ok;  // one completion too many: a callback ran twice
  EXPECT_FALSE(Judge(history, tally, std::nullopt).correct);
}

TEST(SuiteVerdict, FaultMustStabilize) {
  // Reads after the fault at t = 100 return garbage until the write at
  // 200 completes; afterwards they are regular again.
  History history = TwoKeys(/*stale=*/false);
  history.Add(Read(0, Value{'?'}, 110, 120));
  history.Add(Write(0, 2, 200, 210));
  history.Add(Read(0, ValueOf(0, 2), 220, 230));
  Verdict verdict = Judge(history, AllOk(history), 100);
  EXPECT_TRUE(verdict.correct);
  EXPECT_TRUE(verdict.stabilized);
  EXPECT_DOUBLE_EQ(verdict.stabilize_ms, (111 - 100) / 1000.0);

  // Garbage to the end: never stabilizes.
  history.Add(Read(0, Value{'?'}, 240, 250));
  verdict = Judge(history, AllOk(history), 100);
  EXPECT_FALSE(verdict.correct);
  EXPECT_FALSE(verdict.stabilized);
}

TEST(SuiteVerdict, ValueRoundTrip) {
  EXPECT_EQ(SeqOf(7, ValueOf(7, 42)), 42u);
  EXPECT_EQ(SeqOf(7, ValueOf(8, 42)), kForeignSeq);
  EXPECT_EQ(SeqOf(7, Value{}), kEmptySeq);
  const std::string padded = "k07#1";
  EXPECT_EQ(SeqOf(7, Value(padded.begin(), padded.end())), kForeignSeq);
}

}  // namespace
}  // namespace sbft::suite
