// Additional labeling-system properties: rotation behaviour, the
// distrusted-inputs knob, and adversarial-input robustness — the
// machinery behind DESIGN.md gap #3.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "labels/labeling_system.hpp"

namespace sbft {
namespace {

TEST(LabelingExtra, SoloWriterRotationPeriodIsLong) {
  // The sting must cycle with period close to the domain size, so that
  // labels of writes still in any history window never re-alias.
  LabelingSystem system(6);
  Label current = system.Initial();
  std::vector<Label> seen{current};
  const std::uint32_t horizon = system.params().Domain() / 2;
  for (std::uint32_t i = 0; i < horizon; ++i) {
    current = system.Next(std::vector<Label>{current});
    for (const Label& old : seen) {
      ASSERT_NE(current, old) << "label reused after only " << i
                              << " writes (domain "
                              << system.params().Domain() << ")";
    }
    seen.push_back(current);
  }
}

TEST(LabelingExtra, DistrustedIgnoresByzantineStingInflation) {
  // A lying input reporting a near-maximal sting must not fast-forward
  // the rotation when distrusted=1; without the knob it does.
  LabelingSystem system(6);
  const std::uint32_t m = system.params().Domain();
  Label honest = system.Initial();
  Label liar;
  liar.sting = m - 1;
  liar.antistings = honest.antistings;  // structurally valid
  ASSERT_TRUE(system.IsValid(liar));

  Label trusting = system.Next(std::vector<Label>{honest, liar});
  Label distrusting =
      system.Next(std::vector<Label>{honest, liar}, /*distrusted=*/1);

  // Both must dominate both inputs (correctness is unconditional)...
  for (const Label* input : {&honest, &liar}) {
    EXPECT_TRUE(system.Precedes(*input, trusting));
    EXPECT_TRUE(system.Precedes(*input, distrusting));
  }
  // ...but only the trusting one jumped near the wrap point.
  EXPECT_LT(distrusting.sting, m / 2);
  EXPECT_TRUE(trusting.sting >= m - 1 || trusting.sting < honest.sting + 2)
      << trusting.ToString();
}

TEST(LabelingExtra, RepeatedByzantinePressureDoesNotShortenCycle) {
  // With distrusted = f, a persistent liar cannot force label reuse
  // within a history-window-sized horizon.
  LabelingSystem system(11);
  Rng rng(7);
  Label liar{.sting = static_cast<std::uint16_t>(system.params().Domain() - 1),
             .antistings = {}};
  liar = system.Sanitize(liar);
  Label current = system.Initial();
  std::vector<Label> window;
  for (int i = 0; i < 200; ++i) {
    Label next =
        system.Next(std::vector<Label>{current, liar}, /*distrusted=*/1);
    for (const Label& recent : window) {
      ASSERT_NE(next, recent) << "reuse at step " << i;
    }
    window.push_back(next);
    if (window.size() > 22) window.erase(window.begin());  // 2n window
    current = next;
  }
}

TEST(LabelingExtra, AntistingPaddingCoversRecentStings) {
  // The padding scans downward from the fresh sting, so consecutive
  // labels' stings land in their successors' antisting sets — which is
  // what makes recent chains totally ordered in practice.
  LabelingSystem system(6);
  Label a = system.Initial();
  Label b = system.Next(std::vector<Label>{a});
  Label c = system.Next(std::vector<Label>{b});
  // c's antistings contain b's sting (required) AND usually a's (from
  // padding the recent region):
  EXPECT_TRUE(std::binary_search(c.antistings.begin(), c.antistings.end(),
                                 b.sting));
  EXPECT_TRUE(system.Precedes(a, c) || !system.Precedes(c, a))
      << "old label must never dominate a fresh one in a short chain";
}

TEST(LabelingExtra, NextToleratesFullKInputLoad) {
  LabelingSystem system(31);
  Rng rng(9);
  std::vector<Label> inputs;
  for (int i = 0; i < 31; ++i) {
    inputs.push_back(RandomValidLabel(rng, system.params()));
  }
  Label next = system.Next(inputs, /*distrusted=*/6);
  EXPECT_TRUE(system.IsValid(next));
  for (const Label& input : inputs) {
    EXPECT_TRUE(system.Precedes(input, next));
  }
}

TEST(LabelingExtra, DistrustLargerThanInputsIsSafe) {
  LabelingSystem system(4);
  Label l = system.Initial();
  Label next = system.Next(std::vector<Label>{l}, /*distrusted=*/10);
  EXPECT_TRUE(system.IsValid(next));
  EXPECT_TRUE(system.Precedes(l, next));
}

}  // namespace
}  // namespace sbft
