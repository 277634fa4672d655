// Baseline protocols: correct in their own fault models, demonstrably
// broken outside them (the E5 story, unit-sized).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/quorum_register.hpp"
#include "sim/world.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

// A baseline on a sim world: n servers and one client (id 100) under
// `rules`. Servers [0, liars) are built by `liar(i)`; the correct ones,
// which take their timestamp domain from `rules`, are in `servers`.
template <typename Server, typename Rules>
struct Rig {
  using Outcome = QuorumReadOutcome<typename Rules::Ts>;
  using Liar = std::function<std::unique_ptr<Automaton>(std::size_t)>;

  explicit Rig(std::size_t n, Rules rules, std::uint64_t seed = 1,
               std::size_t liars = 0, const Liar& liar = nullptr) {
    World::Options options;
    options.seed = seed;
    world = std::make_unique<World>(std::move(options));
    for (std::size_t i = 0; i < n; ++i) {
      if (i < liars) {
        server_ids.push_back(world->AddNode(liar(i)));
        continue;
      }
      auto server = std::make_unique<Server>(rules);
      servers.push_back(server.get());
      server_ids.push_back(world->AddNode(std::move(server)));
    }
    auto client_owner = std::make_unique<QuorumClient<Rules>>(
        server_ids, std::move(rules), 100);
    client = client_owner.get();
    world->AddNode(std::move(client_owner));
    world->RunUntil([] { return true; }, 0);
  }

  bool Write(const Value& value) {
    bool done = false, ok = false;
    client->StartWrite(value, [&](bool k) {
      ok = k;
      done = true;
    });
    world->RunUntil([&] { return done; }, 100000);
    return done && ok;
  }
  Outcome Read() {
    Outcome outcome;
    bool done = false;
    client->StartRead([&](const Outcome& o) {
      outcome = o;
      done = true;
    });
    world->RunUntil([&] { return done; }, 100000);
    return outcome;
  }

  std::unique_ptr<World> world;
  std::vector<Server*> servers;
  std::vector<NodeId> server_ids;
  QuorumClient<Rules>* client = nullptr;
};

using AbdRig = Rig<AbdServer, AbdRules>;
using BuRig = Rig<BuServer, BuRules>;
using NqRig = Rig<NqServer, Tm1rRules>;

// --- ABD ----------------------------------------------------------------

TEST(AbdBaseline, CrashModelWriteReadWorks) {
  AbdRig rig(5, AbdRules{});
  ASSERT_TRUE(rig.Write(Val("abd-1")));
  auto read = rig.Read();
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.value, Val("abd-1"));
}

TEST(AbdBaseline, SequentialWritesMonotone) {
  AbdRig rig(5, AbdRules{});
  for (int i = 0; i < 10; ++i) {
    const Value value = Val("abd-" + std::to_string(i));
    ASSERT_TRUE(rig.Write(value));
    EXPECT_EQ(rig.Read().value, value);
  }
}

TEST(AbdBaseline, ByzantineMaxTsServerPoisonsReads) {
  // One lying server with a maximal timestamp wins the max-ts rule on
  // any read quorum containing it: ABD gives no Byzantine protection.
  // The liar is an AbdServer frozen at a huge timestamp.
  AbdRig rig(5, AbdRules{}, /*seed=*/3, /*liars=*/1, [](std::size_t) {
    auto liar = std::make_unique<AbdServer>();
    liar->SetState(UnboundedTs{~0ull, 99}, Val("evil"));
    return liar;
  });
  ASSERT_TRUE(rig.Write(Val("honest")));
  int poisoned = 0;
  for (int i = 0; i < 10; ++i) {
    auto read = rig.Read();
    if (read.value == Val("evil")) ++poisoned;
  }
  EXPECT_GT(poisoned, 0);
}

TEST(AbdBaseline, TransientCorruptionIsPermanent) {
  // Corrupt every server: the planted near-maximal timestamps make the
  // garbage stick — no later write can exceed them.
  AbdRig rig(5, AbdRules{}, /*seed=*/4);
  ASSERT_TRUE(rig.Write(Val("before")));
  Rng rng(99);
  for (auto* server : rig.servers) {
    server->SetState(UnboundedTs{0xFFFFFFFFFFFFFF00ull +
                                     rng.NextBelow(200),
                                 7},
                     Val("junk"));
  }
  ASSERT_TRUE(rig.Write(Val("after")));  // write "completes"...
  auto read = rig.Read();
  ASSERT_TRUE(read.ok);
  EXPECT_NE(read.value, Val("after"));  // ...but is never visible
}

// --- BFT-unbounded ------------------------------------------------------

TEST(BuBaseline, CleanStartWorks) {
  BuRig rig(4, BuRules(/*f=*/1));
  ASSERT_TRUE(rig.Write(Val("bu-1")));
  auto read = rig.Read();
  ASSERT_TRUE(read.ok);
  EXPECT_EQ(read.value, Val("bu-1"));
}

TEST(BuBaseline, ToleratesByzantineFromCleanStart) {
  BuRig rig(4, BuRules(/*f=*/1), /*seed=*/5, /*liars=*/1, [](std::size_t i) {
    return std::make_unique<BuByzantineServer>(5 + i);
  });
  for (int i = 0; i < 8; ++i) {
    const Value value = Val("bu-" + std::to_string(i));
    ASSERT_TRUE(rig.Write(value));
    auto read = rig.Read();
    ASSERT_TRUE(read.ok) << i;
    EXPECT_EQ(read.value, value) << i;
  }
}

TEST(BuBaseline, TransientCorruptionPermanentlyBreaksReads) {
  // The unbounded-timestamp failure mode the paper's bounded labels
  // avoid: corruption plants distinct near-maximal timestamps at every
  // correct server; no value can ever again reach f+1 witnesses and the
  // saturated timestamps cannot be dominated, so reads abort forever.
  BuRig rig(4, BuRules(/*f=*/1), /*seed=*/6);
  ASSERT_TRUE(rig.Write(Val("before")));
  Rng rng(7);
  for (auto* server : rig.servers) {
    // Fully saturated timestamps with distinct garbage: the worst legal
    // state a transient fault can leave fixed-width timestamps in. No
    // legitimate timestamp can ever exceed it again.
    server->SetState(
        UnboundedTs{std::numeric_limits<std::uint64_t>::max(),
                    std::numeric_limits<std::uint32_t>::max()},
        RandomBytes(rng, 4));  // distinct garbage each
  }
  ASSERT_TRUE(rig.Write(Val("after")));
  int ok_reads = 0;
  for (int i = 0; i < 10; ++i) {
    auto read = rig.Read();
    if (read.ok && read.value == Val("after")) ++ok_reads;
  }
  // The register never again returns the legitimately written value.
  EXPECT_EQ(ok_reads, 0);
}

// --- Naive quorum (TM_1R) -----------------------------------------------

TEST(NqBaseline, CleanStartWorks) {
  NqRig rig(5, Tm1rRules(/*f=*/1, /*k=*/8));
  ASSERT_TRUE(rig.Write(Val("nq-1")));
  auto outcome = rig.Read();
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.value, Val("nq-1"));
}

}  // namespace
}  // namespace sbft
