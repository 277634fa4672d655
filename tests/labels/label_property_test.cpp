// Property-based tests for the bounded labeling system: random label
// pools drawn from Rng, checked against the Definition 2 contracts the
// protocol's correctness argument actually uses. Counterexamples print
// the seed and the offending labels, so a failure here is replayable.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "labels/labeling_system.hpp"
#include "labels/timestamp.hpp"

namespace sbft {
namespace {

// A pool the protocol could plausibly hand to next(): mostly valid
// labels, occasionally raw garbage (arbitrary post-fault memory).
std::vector<Label> RandomPool(Rng& rng, const LabelParams& params,
                              std::size_t size) {
  std::vector<Label> pool;
  pool.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    pool.push_back(rng.NextBool(0.8) ? RandomValidLabel(rng, params)
                                     : RandomGarbageLabel(rng, params));
  }
  return pool;
}

TEST(LabelProperty, NextDominatesEveryPoolMember) {
  // Definition 2's one-line spec: for |L'| <= k, every l in L'
  // satisfies l < next(L'). Checked across k values and pool sizes,
  // including pools containing garbage (sanitized internally) and the
  // distrusted-suffix variants the register client uses.
  Rng rng(2026);
  for (std::uint32_t k : {2u, 3u, 5u, 8u}) {
    LabelingSystem system(k);
    for (int round = 0; round < 400; ++round) {
      const std::size_t size = rng.NextBelow(k + 1);
      const std::vector<Label> pool = RandomPool(rng, system.params(), size);
      const std::size_t distrusted = rng.NextBelow(size + 1);
      const Label next = system.Next(pool, distrusted);
      ASSERT_TRUE(system.IsValid(next)) << "k=" << k << " round=" << round;
      for (const Label& member : pool) {
        const Label sanitized = system.Sanitize(member);
        EXPECT_TRUE(system.Precedes(sanitized, next))
            << "k=" << k << " round=" << round << " member "
            << sanitized.ToString() << " not dominated by "
            << next.ToString();
        EXPECT_FALSE(system.Precedes(next, sanitized))
            << "k=" << k << " round=" << round;
      }
    }
  }
}

TEST(LabelProperty, PrecedenceIsIrreflexiveAndAntisymmetric) {
  // Transitivity is intentionally absent (that is the price of
  // boundedness), but irreflexivity and antisymmetry must be absolute —
  // a 2-cycle in < would let the WTsG certify two values as dominating
  // each other.
  Rng rng(2027);
  for (std::uint32_t k : {2u, 3u, 6u}) {
    LabelingSystem system(k);
    for (int round = 0; round < 2000; ++round) {
      const Label a = RandomValidLabel(rng, system.params());
      const Label b = RandomValidLabel(rng, system.params());
      EXPECT_FALSE(system.Precedes(a, a));
      EXPECT_FALSE(system.Precedes(a, b) && system.Precedes(b, a))
          << a.ToString() << " <> " << b.ToString();
    }
  }
}

TEST(LabelProperty, InvalidLabelsAreIncomparable) {
  Rng rng(2028);
  LabelingSystem system(4);
  for (int round = 0; round < 500; ++round) {
    Label garbage = RandomGarbageLabel(rng, system.params());
    if (system.IsValid(garbage)) continue;  // rarely lands valid
    const Label valid = RandomValidLabel(rng, system.params());
    EXPECT_FALSE(system.Precedes(garbage, valid));
    EXPECT_FALSE(system.Precedes(valid, garbage));
    EXPECT_FALSE(system.Precedes(garbage, garbage));
  }
}

TEST(LabelProperty, SanitizeIsValidIdempotentAndIdentityOnValid) {
  Rng rng(2029);
  for (std::uint32_t k : {2u, 4u, 7u}) {
    LabelingSystem system(k);
    for (int round = 0; round < 1000; ++round) {
      const Label garbage = RandomGarbageLabel(rng, system.params());
      const Label sanitized = system.Sanitize(garbage);
      ASSERT_TRUE(system.IsValid(sanitized))
          << "k=" << k << " from " << garbage.ToString();
      EXPECT_EQ(system.Sanitize(sanitized), sanitized);
      const Label valid = RandomValidLabel(rng, system.params());
      EXPECT_EQ(system.Sanitize(valid), valid);
    }
  }
}

Label WireRoundTrip(const Label& label) {
  BufWriter w;
  label.Encode(w);
  const Bytes wire = w.Take();
  BufReader r(wire);
  Label decoded = Label::Decode(r);
  EXPECT_TRUE(r.AtEndOk()) << label.ToString();
  return decoded;
}

TEST(LabelProperty, WireFormIsInvisibleToSanitize) {
  // The codec sends antistings sorted and deduplicated, so a garbage
  // label may come back in another form — but Sanitize, the only way
  // the protocol uses a label it has not validated, must not tell the
  // difference: Sanitize(Decode(Encode(x))) == Sanitize(x).
  Rng rng(2032);
  for (std::uint32_t k : {2u, 6u, 16u, 31u}) {
    LabelingSystem system(k);
    const auto m = static_cast<std::uint16_t>(system.params().Domain());
    const auto check = [&](const Label& x, const char* what) {
      EXPECT_EQ(system.Sanitize(WireRoundTrip(x)), system.Sanitize(x))
          << "k=" << k << " " << what << ": " << x.ToString();
    };
    for (int round = 0; round < 2500; ++round) {
      check(RandomGarbageLabel(rng, system.params()), "random garbage");
    }

    const Label valid = RandomValidLabel(rng, system.params());
    Label unsorted = valid;
    std::reverse(unsorted.antistings.begin(), unsorted.antistings.end());
    check(unsorted, "unsorted");
    Label duplicated = valid;
    duplicated.antistings.push_back(valid.antistings[0]);
    duplicated.antistings.push_back(valid.antistings[k / 2]);
    check(duplicated, "duplicated");
    Label own_sting = valid;
    own_sting.antistings[1] = valid.sting;
    check(own_sting, "sting among the antistings");
    Label too_many = valid;
    for (std::uint16_t a = 0; too_many.antistings.size() <= k + 3; ++a) {
      too_many.antistings.push_back(static_cast<std::uint16_t>(m - 1 - a));
    }
    check(too_many, "more than k antistings");
    Label hundreds;
    hundreds.sting = 9;
    for (int i = 0; i < 300; ++i) {
      hundreds.antistings.push_back(
          static_cast<std::uint16_t>(rng.NextBelow(4 * m)));
    }
    check(hundreds, "more than 255 antistings");
    Label out_of_domain = valid;
    out_of_domain.sting = static_cast<std::uint16_t>(m + 3);
    out_of_domain.antistings.back() = 65535;
    out_of_domain.antistings[0] = m;
    check(out_of_domain, "values at or past Domain()");
    check(Label{}, "empty");
  }
}

TEST(LabelProperty, ValidLabelsRoundTripExactly) {
  Rng rng(2033);
  for (std::uint32_t k : {2u, 6u, 16u, 31u, 127u}) {
    LabelingSystem system(k);
    Label chained = system.Initial();
    for (int round = 0; round < 200; ++round) {
      const Label random = RandomValidLabel(rng, system.params());
      EXPECT_EQ(WireRoundTrip(random), random) << "k=" << k;
      chained = system.Next(std::vector<Label>{chained, random});
      EXPECT_EQ(WireRoundTrip(chained), chained) << "k=" << k;
    }
  }
}

TEST(LabelProperty, SelectionOrderIsTotalAndAntisymmetricOnTimestamps) {
  // SelectionLess breaks WTsG election ties; if two distinct
  // timestamps were mutually unordered the election would depend on
  // scan order, so totality and antisymmetry are load-bearing.
  Rng rng(2030);
  LabelingSystem system(4);
  const auto random_ts = [&] {
    Timestamp ts;
    ts.label = rng.NextBool(0.9) ? RandomValidLabel(rng, system.params())
                                 : RandomGarbageLabel(rng, system.params());
    // Small id range so equal-label and equal-id collisions actually
    // occur in the sample.
    ts.writer_id = static_cast<ClientId>(rng.NextBelow(4));
    return ts;
  };
  for (int round = 0; round < 3000; ++round) {
    const Timestamp a = random_ts();
    const Timestamp b = random_ts();
    const bool ab = SelectionLess(a, b, system.params());
    const bool ba = SelectionLess(b, a, system.params());
    if (a == b) {
      EXPECT_FALSE(ab || ba) << a.ToString();
    } else {
      EXPECT_TRUE(ab != ba)
          << a.ToString() << " vs " << b.ToString() << " ab=" << ab;
    }
  }
}

TEST(LabelProperty, TimestampPrecedenceRefusesToOrderIncomparableLabels) {
  // Writer ids order timestamps only when labels are equal; for
  // incomparable labels an id edge would let a stale write dominate a
  // fresh one (see timestamp.cpp). Find incomparable pairs by sampling.
  Rng rng(2031);
  LabelingSystem system(3);
  int incomparable_seen = 0;
  for (int round = 0; round < 4000 && incomparable_seen < 50; ++round) {
    const Label la = RandomValidLabel(rng, system.params());
    const Label lb = RandomValidLabel(rng, system.params());
    if (la == lb || system.Precedes(la, lb) || system.Precedes(lb, la)) {
      continue;
    }
    incomparable_seen++;
    const Timestamp a{la, 0};
    const Timestamp b{lb, 1};
    EXPECT_FALSE(Precedes(a, b, system.params()));
    EXPECT_FALSE(Precedes(b, a, system.params()));
  }
  EXPECT_GE(incomparable_seen, 10)
      << "sampling never produced incomparable labels; weak test";
}

}  // namespace
}  // namespace sbft
