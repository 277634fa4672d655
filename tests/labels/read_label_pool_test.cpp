// Tests for the bounded read-label pool bookkeeping (Figure 3 substrate).
#include "labels/read_label_pool.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace sbft {
namespace {

TEST(ReadLabelPool, CandidateDiffersFromLast) {
  ReadLabelPool pool(5, 3);
  for (int i = 0; i < 10; ++i) {
    ReadLabel candidate = pool.PickCandidate();
    EXPECT_NE(candidate, pool.last());
    EXPECT_LT(candidate, pool.n_labels());
    pool.SetLast(candidate);
  }
}

TEST(ReadLabelPool, PendingBookkeeping) {
  ReadLabelPool pool(4, 2);
  EXPECT_EQ(pool.PendingCount(0), 0u);
  pool.MarkPending(0, 0);
  pool.MarkPending(2, 0);
  pool.MarkPending(2, 1);
  EXPECT_EQ(pool.PendingCount(0), 2u);
  EXPECT_EQ(pool.PendingCount(1), 1u);
  EXPECT_TRUE(pool.IsPending(2, 0));
  pool.ClearPending(2, 0);
  EXPECT_FALSE(pool.IsPending(2, 0));
  EXPECT_EQ(pool.PendingCount(0), 1u);
}

TEST(ReadLabelPool, ClearPendingToleratesGarbageCoordinates) {
  // A REPLY/FLUSH_ACK forged by a Byzantine server (or corrupted in the
  // channel) may carry arbitrary server/label indices; clearing must be
  // a harmless no-op, never UB.
  ReadLabelPool pool(3, 2);
  pool.ClearPending(999, 0);
  pool.ClearPending(0, 999);
  pool.ClearPending(12345, 67890);
  EXPECT_EQ(pool.PendingCount(0), 0u);
}

TEST(ReadLabelPool, CorruptThenSanitizeRestoresInvariants) {
  Rng rng(41);
  ReadLabelPool pool(6, 4);
  for (int round = 0; round < 100; ++round) {
    pool.Corrupt(rng);
    pool.SanitizeState();
    EXPECT_LT(pool.last(), pool.n_labels());
    ReadLabel candidate = pool.PickCandidate();
    EXPECT_LT(candidate, pool.n_labels());
    EXPECT_NE(candidate, pool.last());
    for (ReadLabel l = 0; l < pool.n_labels(); ++l) {
      EXPECT_LE(pool.PendingCount(l), pool.n_servers());
    }
  }
}

TEST(ReadLabelPool, CorruptDrawsLastThenCellsServersOuter) {
  // The fault injector's draws are part of every seeded scenario, so
  // Corrupt keeps its order whatever the matrix's layout: `last`, then
  // one bit per (server, label) cell, servers outer.
  ReadLabelPool pool(5, 4);
  Rng rng(2015);
  pool.Corrupt(rng);
  Rng replay(2015);
  EXPECT_EQ(pool.last(), static_cast<ReadLabel>(replay()));
  std::size_t set = 0;
  for (ServerIndex server = 0; server < pool.n_servers(); ++server) {
    for (ReadLabel label = 0; label < pool.n_labels(); ++label) {
      const bool drawn = replay.NextBool(0.5);
      EXPECT_EQ(pool.IsPending(server, label), drawn)
          << "server " << server << " label " << label;
      set += drawn ? 1 : 0;
    }
  }
  EXPECT_EQ(rng(), replay());  // no draw more, none fewer
  EXPECT_GT(set, 0u);
  EXPECT_LT(set, 20u);
}

TEST(ReadLabelPool, SixtyFourServersFitOneColumn) {
  ReadLabelPool pool(64, 3);
  for (ServerIndex server = 0; server < 64; server += 3) {
    pool.MarkPending(server, 2);
  }
  EXPECT_EQ(pool.PendingCount(2), 22u);
  EXPECT_TRUE(pool.IsPending(63, 2));
  pool.ClearPending(63, 2);
  EXPECT_EQ(pool.PendingCount(2), 21u);
  EXPECT_EQ(pool.PendingCount(1), 0u);
}

TEST(ReadLabelPool, MinimumPoolOfTwoAlternates) {
  ReadLabelPool pool(1, 2);
  ReadLabel first = pool.PickCandidate();
  pool.SetLast(first);
  ReadLabel second = pool.PickCandidate();
  EXPECT_NE(first, second);
  pool.SetLast(second);
  EXPECT_EQ(pool.PickCandidate(), first);
}

TEST(ReadLabelPool, RejectsDegenerateShapes) {
  EXPECT_THROW(ReadLabelPool(0, 2), InvariantViolation);
  EXPECT_THROW(ReadLabelPool(3, 1), InvariantViolation);
  EXPECT_THROW(ReadLabelPool(65, 2), InvariantViolation);
}

}  // namespace
}  // namespace sbft
