// Property tests for Definition 2: for any set L' of at most k labels,
// every l in L' satisfies l < next(L'). This is the load-bearing
// property of the whole bounded-timestamp design; we test it for valid,
// corrupted, and adversarially repeated inputs, and across long chains
// (label reuse / wrap-around).
#include "labels/labeling_system.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace sbft {
namespace {

class LabelingSystemProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(LabelingSystemProperty, NextDominatesAllValidInputs) {
  const auto [k, seed] = GetParam();
  LabelingSystem system(k);
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + k);
  for (int round = 0; round < 200; ++round) {
    const auto count = rng.NextBelow(k) + 1;
    std::vector<Label> inputs;
    for (std::uint64_t i = 0; i < count; ++i) {
      inputs.push_back(RandomValidLabel(rng, system.params()));
    }
    Label next = system.Next(inputs);
    EXPECT_TRUE(system.IsValid(next));
    for (const Label& l : inputs) {
      EXPECT_TRUE(system.Precedes(l, next))
          << l.ToString() << " !< " << next.ToString() << " k=" << k;
      EXPECT_FALSE(system.Precedes(next, l));
      EXPECT_NE(next, l);
    }
  }
}

TEST_P(LabelingSystemProperty, NextDominatesSanitizedGarbageInputs) {
  const auto [k, seed] = GetParam();
  LabelingSystem system(k);
  Rng rng(static_cast<std::uint64_t>(seed) * 104729 + k);
  for (int round = 0; round < 100; ++round) {
    const auto count = rng.NextBelow(k) + 1;
    std::vector<Label> inputs;
    for (std::uint64_t i = 0; i < count; ++i) {
      inputs.push_back(rng.NextBool(0.5)
                           ? RandomGarbageLabel(rng, system.params())
                           : RandomValidLabel(rng, system.params()));
    }
    Label next = system.Next(inputs);
    EXPECT_TRUE(system.IsValid(next));
    for (const Label& l : inputs) {
      // next() dominates the *sanitized* form of each input — the form
      // the protocol actually compares against after stabilization.
      EXPECT_TRUE(system.Precedes(system.Sanitize(l), next));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LabelingSystemProperty,
    ::testing::Combine(::testing::Values(2u, 3u, 6u, 11u, 16u, 31u),
                       ::testing::Values(1, 2, 3)),
    [](const auto& param_info) {
      return "k" + std::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(LabelingSystem, LongChainStaysDominant) {
  // Simulates a single writer issuing many writes: each next() must
  // dominate the previous label, forever, despite the finite label set
  // (so labels are necessarily reused over time).
  LabelingSystem system(4);
  Label current = system.Initial();
  for (int i = 0; i < 20000; ++i) {
    Label next = system.Next(std::vector<Label>{current});
    ASSERT_TRUE(system.Precedes(current, next)) << "step " << i;
    current = next;
  }
}

TEST(LabelingSystem, ChainWithWindowOfRecentLabels) {
  // Harsher variant: dominate the last k labels simultaneously, which is
  // what the writer actually asks when collecting server timestamps.
  const std::uint32_t k = 5;
  LabelingSystem system(k);
  std::vector<Label> window{system.Initial()};
  for (int i = 0; i < 5000; ++i) {
    Label next = system.Next(window);
    for (const Label& l : window) {
      ASSERT_TRUE(system.Precedes(l, next)) << "step " << i;
    }
    window.push_back(next);
    if (window.size() > k) window.erase(window.begin());
  }
}

TEST(LabelingSystem, DuplicateInputsHandled) {
  LabelingSystem system(3);
  Label l = system.Initial();
  std::vector<Label> inputs{l, l, l};
  Label next = system.Next(inputs);
  EXPECT_TRUE(system.Precedes(l, next));
}

TEST(LabelingSystem, EmptyInputYieldsValidLabel) {
  LabelingSystem system(3);
  Label next = system.Next({});
  EXPECT_TRUE(system.IsValid(next));
}

TEST(LabelingSystem, RejectsKBelowTwo) {
  EXPECT_THROW(LabelingSystem(1), InvariantViolation);
}

TEST(LabelingSystem, LabelSpaceIsFiniteAndReported) {
  LabelingSystem small(2);  // m = 25, |L| = 25 * C(24,2) = 6900
  EXPECT_DOUBLE_EQ(small.LabelSpaceSize(), 6900.0);
  // u16 sting, a one-byte count and two deltas <= 25 of one byte each.
  EXPECT_EQ(small.LabelWireSize(), 2u + 1u + 2u * 1u);

  LabelingSystem bigger(6);  // m = 169
  EXPECT_GT(bigger.LabelSpaceSize(), small.LabelSpaceSize());
  // Six deltas <= 169, which takes a two-byte varint.
  EXPECT_EQ(bigger.LabelWireSize(), 2u + 1u + 6u * 2u);
}

TEST(LabelingSystem, NextIsDeterministic) {
  LabelingSystem system(4);
  Rng rng(77);
  std::vector<Label> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(RandomValidLabel(rng, system.params()));
  }
  EXPECT_EQ(system.Next(inputs), system.Next(inputs));
}

}  // namespace
}  // namespace sbft
