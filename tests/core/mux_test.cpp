// Multi-register multiplexing: independent registers over one server
// population, concurrent per-register operations, isolation, bounded
// tables, full fault tolerance per register, batch windows, shared
// FLUSH rounds, and the frame types the serving path puts on the wire.
#include "core/mux.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "load/stabilization.hpp"
#include "net/message.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "spec/history.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

struct MuxRig {
  explicit MuxRig(std::uint64_t seed, std::size_t max_registers = 1024,
                  bool one_byzantine = false, MuxBatchOptions batch = {}) {
    World::Options world_options;
    world_options.seed = seed;
    world = std::make_unique<World>(std::move(world_options));
    config = ProtocolConfig::ForServers(6);
    for (std::size_t i = 0; i < 6; ++i) {
      MuxServer::ServerFactory factory;
      if (one_byzantine && i == 2) {
        factory = [this, i](RegisterId id) {
          return MakeByzantineServer(ByzantineStrategy::kStaleReplay,
                                     config, i, id);
        };
      }
      auto server = std::make_unique<MuxServer>(config, i, max_registers,
                                                std::move(factory));
      servers.push_back(server.get());
      server_ids.push_back(world->AddNode(std::move(server)));
    }
    auto client_owner = std::make_unique<MuxClient>(config, server_ids, 100,
                                                    max_registers, batch);
    client = client_owner.get();
    client_id = world->AddNode(std::move(client_owner));
    world->RunUntil([] { return true; }, 0);
  }

  bool Put(const std::string& key, const Value& value) {
    bool done = false, ok = false;
    client->Put(key, value, [&](const WriteOutcome& outcome) {
      ok = outcome.status == OpStatus::kOk;
      done = true;
    });
    world->RunUntil([&] { return done; }, 1'000'000);
    return done && ok;
  }
  ReadOutcome Get(const std::string& key) {
    ReadOutcome result;
    bool done = false;
    client->Get(key, [&](const ReadOutcome& outcome) {
      result = outcome;
      done = true;
    });
    world->RunUntil([&] { return done; }, 1'000'000);
    return result;
  }

  std::unique_ptr<World> world;
  ProtocolConfig config;
  std::vector<MuxServer*> servers;
  std::vector<NodeId> server_ids;
  MuxClient* client = nullptr;
  NodeId client_id = 0;
};

TEST(Mux, PutGetSingleKey) {
  MuxRig rig(1);
  ASSERT_TRUE(rig.Put("alpha", Val("1")));
  auto got = rig.Get("alpha");
  ASSERT_EQ(got.status, OpStatus::kOk);
  EXPECT_EQ(got.value, Val("1"));
}

TEST(Mux, KeysAreIsolated) {
  MuxRig rig(2);
  ASSERT_TRUE(rig.Put("a", Val("va")));
  ASSERT_TRUE(rig.Put("b", Val("vb")));
  ASSERT_TRUE(rig.Put("c", Val("vc")));
  EXPECT_EQ(rig.Get("a").value, Val("va"));
  EXPECT_EQ(rig.Get("b").value, Val("vb"));
  EXPECT_EQ(rig.Get("c").value, Val("vc"));
  // Overwriting one key leaves the others untouched.
  ASSERT_TRUE(rig.Put("b", Val("vb2")));
  EXPECT_EQ(rig.Get("a").value, Val("va"));
  EXPECT_EQ(rig.Get("b").value, Val("vb2"));
  EXPECT_EQ(rig.Get("c").value, Val("vc"));
}

TEST(Mux, ConcurrentOpsOnDistinctKeys) {
  // Operations on different registers proceed in parallel through one
  // client automaton.
  MuxRig rig(3);
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    rig.client->Put("key" + std::to_string(i),
                    Val("v" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 5; }, 2'000'000));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.Get("key" + std::to_string(i)).value,
              Val("v" + std::to_string(i)));
  }
}

TEST(Mux, ByzantinePerRegisterMasked) {
  MuxRig rig(4, 1024, /*one_byzantine=*/true);
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(rig.Put(key, Val("val" + std::to_string(i))));
    auto got = rig.Get(key);
    ASSERT_EQ(got.status, OpStatus::kOk);
    EXPECT_EQ(got.value, Val("val" + std::to_string(i)));
  }
}

TEST(Mux, ServerTableBoundedByLru) {
  MuxRig rig(5, /*max_registers=*/4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.Put("key" + std::to_string(i), Val("x")));
  }
  for (MuxServer* server : rig.servers) {
    EXPECT_LE(server->register_count(), 4u);
  }
  // Hot keys survive; a long-evicted key reads as unwritten/aborted or
  // fresh initial state — equivalent to a transient fault on that
  // register, never a wrong certified value.
  ASSERT_TRUE(rig.Put("hot", Val("still-here")));
  EXPECT_EQ(rig.Get("hot").value, Val("still-here"));
  auto cold = rig.Get("key0");
  if (cold.status == OpStatus::kOk) {
    EXPECT_NE(cold.value, Val("wrong"));
  }
}

TEST(Mux, TransientCorruptionHealsPerRegister) {
  MuxRig rig(6);
  ASSERT_TRUE(rig.Put("k", Val("before")));
  for (std::size_t i = 0; i < 6; ++i) {
    rig.world->CorruptNode(rig.server_ids[i]);
  }
  ASSERT_TRUE(rig.Put("k", Val("after")));
  for (int i = 0; i < 3; ++i) {
    auto got = rig.Get("k");
    ASSERT_EQ(got.status, OpStatus::kOk);
    EXPECT_EQ(got.value, Val("after"));
  }
}

TEST(Mux, CorruptClientFailsInFlightOpsInRegisterOrder) {
  // Each in-flight op's kFailed callback runs inside CorruptState, and a
  // caller that draws from an rng per callback (the sim workload
  // driver's think time, in the fuzzer's mux scenarios) replays only if
  // that order is fixed: ascending register id, never the hash table's
  // bucket order.
  MuxRig rig(8);
  std::vector<RegisterId> failed;
  for (const RegisterId id : {7, 3, 12, 1, 9, 30, 5, 200}) {
    rig.client->StartWrite(id, Val("v"),
                           [&failed, id](const WriteOutcome& out) {
                             EXPECT_EQ(out.status, OpStatus::kFailed);
                             failed.push_back(id);
                           });
  }
  ASSERT_FALSE(rig.client->idle(200));
  rig.world->CorruptNode(rig.client_id);
  EXPECT_EQ(failed, (std::vector<RegisterId>{1, 3, 5, 7, 9, 12, 30, 200}));
}

TEST(Mux, BareFramesIgnored) {
  MuxRig rig(7);
  // Un-wrapped protocol frames and garbage at a mux server: dropped.
  rig.world->InjectGarbageFrames(rig.client_id, rig.server_ids[0], 20);
  rig.world->Run();
  ASSERT_TRUE(rig.Put("k", Val("fine")));
  EXPECT_EQ(rig.Get("k").value, Val("fine"));
}

TEST(Mux, RegisterIdOfIsStable) {
  EXPECT_EQ(RegisterIdOf("users/42"), RegisterIdOf("users/42"));
  EXPECT_NE(RegisterIdOf("users/42"), RegisterIdOf("users/43"));
}

// ---- Protocol-round batching -----------------------------------------

MuxBatchOptions Batch(std::size_t max_ops, VirtualTime max_delay = 50) {
  MuxBatchOptions batch;
  batch.max_ops = max_ops;
  batch.max_delay = max_delay;
  return batch;
}

TEST(MuxBatch, LoneOpFlushedByTimer) {
  // A single op never reaches max_ops; the max_delay timer must push
  // its round out (latency bound of the batch window), flush request
  // included, as a one-item NodeFlush round.
  MuxRig rig(21, 1024, false, Batch(/*max_ops=*/8, /*max_delay=*/50));
  ASSERT_TRUE(rig.Put("alpha", Val("1")));
  EXPECT_GE(rig.client->node_flush_rounds(), 1u);
  auto got = rig.Get("alpha");
  ASSERT_EQ(got.status, OpStatus::kOk);
  EXPECT_EQ(got.value, Val("1"));
}

TEST(MuxBatch, OpsQueueUntilWindowFills) {
  MuxRig rig(22, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/1'000'000));
  int done = 0;
  auto on_write = [&](const WriteOutcome& outcome) {
    EXPECT_EQ(outcome.status, OpStatus::kOk);
    ++done;
  };
  // Below max_ops, ops wait in the pending queue (the long max_delay
  // keeps the timer from racing the assertion).
  for (int i = 0; i < 3; ++i) {
    rig.client->Put("key" + std::to_string(i), Val("v"), on_write);
  }
  EXPECT_EQ(rig.client->pending_ops(), 3u);
  // The fourth submission fills the window: the whole batch launches as
  // one shared round.
  rig.client->Put("key3", Val("v"), on_write);
  EXPECT_EQ(rig.client->pending_ops(), 0u);
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 4; }, 2'000'000));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.Get("key" + std::to_string(i)).value, Val("v"));
  }
}

TEST(MuxBatch, ConcurrentOpsOnDistinctKeysBatched) {
  MuxRig rig(23, 1024, false, Batch(/*max_ops=*/8));
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    rig.client->Put("key" + std::to_string(i),
                    Val("v" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 8; }, 2'000'000));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rig.Get("key" + std::to_string(i)).value,
              Val("v" + std::to_string(i)));
  }
}

TEST(MuxBatch, ByzantinePerRegisterMaskedBatched) {
  // The stale-replay server of Mux.ByzantinePerRegisterMasked, behind a
  // four-op window with a 50 us timer instead of the default window.
  MuxRig rig(24, 1024, /*one_byzantine=*/true, Batch(/*max_ops=*/4));
  for (int i = 0; i < 5; ++i) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(rig.Put(key, Val("val" + std::to_string(i))));
    auto got = rig.Get(key);
    ASSERT_EQ(got.status, OpStatus::kOk);
    EXPECT_EQ(got.value, Val("val" + std::to_string(i)));
  }
}

// Runs a fixed concurrent workload (writes then reads over 6 keys) on a
// batched rig and returns (read values, final virtual time).
std::pair<std::vector<Value>, VirtualTime> BatchedRun(std::uint64_t seed) {
  MuxRig rig(seed, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  int writes = 0;
  for (int i = 0; i < 6; ++i) {
    rig.client->Put("key" + std::to_string(i),
                    Val("w" + std::to_string(i)),
                    [&](const WriteOutcome&) { ++writes; });
  }
  EXPECT_TRUE(rig.world->RunUntil([&] { return writes == 6; }, 2'000'000));
  std::vector<Value> values(6);
  int reads = 0;
  for (int i = 0; i < 6; ++i) {
    rig.client->Get("key" + std::to_string(i),
                    [&, i](const ReadOutcome& outcome) {
                      values[i] = outcome.value;
                      ++reads;
                    });
  }
  EXPECT_TRUE(rig.world->RunUntil([&] { return reads == 6; }, 2'000'000));
  return {values, rig.world->now()};
}

TEST(MuxBatch, BatchedRunsAreDeterministic) {
  // Same seed, same batch window -> bit-identical outcome, including
  // the virtual clock: the collector flushes per destination in
  // ascending NodeId order and the NodeFlush probe goes out before the
  // batch frames, so batching adds no scheduling ambiguity.
  auto [values_a, now_a] = BatchedRun(25);
  auto [values_b, now_b] = BatchedRun(25);
  EXPECT_EQ(values_a, values_b);
  EXPECT_EQ(now_a, now_b);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(values_a[i], Val("w" + std::to_string(i)));
  }
}

// Closed-loop write/read rounds per key, keys concurrent, recorded as a
// History keyed by register (rec.client = key index). Returns the
// history; the caller judges it with the per-key checker.
History RunKeyDriverWorkload(MuxRig& rig, int keys, int rounds_per_key) {
  History history;
  int outstanding = 0;
  struct KeyDriver {
    int round = 0;
    bool reading = false;
  };
  std::vector<KeyDriver> drivers(keys);
  std::function<void(int)> step = [&](int key) {
    KeyDriver& driver = drivers[key];
    if (driver.round == rounds_per_key) {
      --outstanding;
      return;
    }
    const std::string name = "key" + std::to_string(key);
    OpRecord rec;
    rec.client = static_cast<std::uint32_t>(key);
    rec.invoked_at = rig.world->now();
    if (!driver.reading) {
      driver.reading = true;
      const Value value =
          Val("k" + std::to_string(key) + "r" + std::to_string(driver.round));
      rec.kind = OpRecord::Kind::kWrite;
      rec.value = value;
      rig.client->Put(name, value, [&, key, rec](const WriteOutcome& out) {
        OpRecord done = rec;
        done.returned_at = rig.world->now();
        done.result = out.status == OpStatus::kOk ? OpRecord::Result::kOk
                                                  : OpRecord::Result::kFailed;
        history.Add(std::move(done));
        step(key);
      });
    } else {
      driver.reading = false;
      ++driver.round;
      rec.kind = OpRecord::Kind::kRead;
      rig.client->Get(name, [&, key, rec](const ReadOutcome& out) {
        OpRecord done = rec;
        done.returned_at = rig.world->now();
        done.result = out.status == OpStatus::kOk
                          ? OpRecord::Result::kOk
                          : OpRecord::Result::kAborted;
        done.value = out.value;
        history.Add(std::move(done));
        step(key);
      });
    }
  };
  for (int key = 0; key < keys; ++key) {
    ++outstanding;
    step(key);
  }
  EXPECT_TRUE(
      rig.world->RunUntil([&] { return outstanding == 0; }, 10'000'000));
  return history;
}

TEST(MuxBatch, BatchedHistoryIsRegularPerKey) {
  // Record a concurrent batched workload as a History and run the
  // per-key regular-register checker over it: frame-level coalescing
  // must not reorder any single register's protocol phases.
  MuxRig rig(26, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  const History history = RunKeyDriverWorkload(rig, /*keys=*/4,
                                               /*rounds_per_key=*/3);
  ASSERT_EQ(history.size(), 24u);
  for (const OpRecord& rec : history.ops()) {
    EXPECT_EQ(rec.result, OpRecord::Result::kOk);
  }
  const CheckReport report = load::CheckRegularPerKey(history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
}

TEST(MuxBatch, CoordinatedCorruptionAnswersReadsThenHeals) {
  // All six replicas corrupted from ONE seed: the per-register rng fork
  // in MuxServer::CorruptState makes the garbage AGREE across replicas,
  // so the next read is ANSWERED with a fabricated value (weight-n
  // witness on the garbage vertex) rather than aborted — the worst case
  // Theorem 2 bounds. A subsequent write must still restore regularity.
  MuxRig rig(27, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  ASSERT_TRUE(rig.Put("k", Val("before")));
  for (MuxServer* server : rig.servers) {
    Rng rng(0xC0FFEE);  // same seed at every replica
    server->CorruptState(rng);
  }
  auto corrupted = rig.Get("k");
  EXPECT_EQ(corrupted.status, OpStatus::kOk)
      << "agreeing garbage should answer, not abort";
  EXPECT_NE(corrupted.value, Val("before"));
  ASSERT_TRUE(rig.Put("k", Val("after")));
  for (int i = 0; i < 3; ++i) {
    auto got = rig.Get("k");
    ASSERT_EQ(got.status, OpStatus::kOk);
    EXPECT_EQ(got.value, Val("after"));
  }
}

// ---- Shared FLUSH rounds ---------------------------------------------

TEST(MuxSharedFlush, WindowSharesOneNodeFlushRound) {
  // Eight ops on distinct registers fill one window: exactly ONE
  // NodeFlush probe goes out for all of them instead of eight FlushMsg
  // broadcasts — the amortization the shared round buys.
  MuxRig rig(31, 1024, false, Batch(/*max_ops=*/8, /*max_delay=*/1'000'000));
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    rig.client->Put("key" + std::to_string(i), Val("v" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  EXPECT_EQ(rig.client->node_flush_rounds(), 1u);
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 8; }, 2'000'000));
  EXPECT_EQ(rig.client->node_flush_rounds(), 1u);
  for (MuxServer* server : rig.servers) {
    EXPECT_EQ(server->node_flushes_acked(), 1u);
  }
  // The follow-up reads form a second window: one more round, not eight.
  int reads = 0;
  for (int i = 0; i < 8; ++i) {
    rig.client->Get("key" + std::to_string(i),
                    [&, i](const ReadOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      EXPECT_EQ(outcome.value, Val("v" + std::to_string(i)));
                      ++reads;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return reads == 8; }, 2'000'000));
  EXPECT_EQ(rig.client->node_flush_rounds(), 2u);
}

TEST(MuxSharedFlush, LoneOpFlushedByTimer) {
  // Latency floor: a lone op's flush request must ride the max_delay
  // timer out as a one-item NodeFlush round — exactly one round per op.
  MuxRig rig(32, 1024, false, Batch(/*max_ops=*/8, /*max_delay=*/50));
  ASSERT_TRUE(rig.Put("alpha", Val("1")));
  EXPECT_EQ(rig.client->node_flush_rounds(), 1u);
  auto got = rig.Get("alpha");
  ASSERT_EQ(got.status, OpStatus::kOk);
  EXPECT_EQ(got.value, Val("1"));
  EXPECT_EQ(rig.client->node_flush_rounds(), 2u);
}

TEST(MuxSharedFlush, ByzantinePerRegisterMasked) {
  // The stale-replay server sits in NodeFlush rounds that several
  // registers share: five writes, then five reads, each set submitted
  // at once so their FLUSH phases ride common rounds.
  MuxRig rig(33, 1024, /*one_byzantine=*/true, Batch(/*max_ops=*/4));
  int writes = 0;
  for (int i = 0; i < 5; ++i) {
    rig.client->Put("k" + std::to_string(i), Val("val" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++writes;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return writes == 5; }, 2'000'000));
  int reads = 0;
  for (int i = 0; i < 5; ++i) {
    rig.client->Get("k" + std::to_string(i),
                    [&, i](const ReadOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      EXPECT_EQ(outcome.value, Val("val" + std::to_string(i)));
                      ++reads;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return reads == 5; }, 2'000'000));
  EXPECT_LT(rig.client->node_flush_rounds(), 10u);
}

// The frames a seeded shared-FLUSH workload puts on the wire, in send
// order, as (virtual time, src, dst, payload hash).
std::vector<std::tuple<VirtualTime, NodeId, NodeId, std::uint64_t>>
SharedFlushWire(std::uint64_t seed) {
  MuxRig rig(seed, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  rig.world->trace().Enable(true);
  const History history = RunKeyDriverWorkload(rig, /*keys=*/4,
                                               /*rounds_per_key=*/2);
  EXPECT_EQ(history.size(), 16u);
  std::vector<std::tuple<VirtualTime, NodeId, NodeId, std::uint64_t>> sends;
  for (const TraceEvent& event : rig.world->trace().events()) {
    if (event.kind != TraceKind::kSend) continue;
    sends.emplace_back(event.time, event.src, event.dst, event.frame_hash);
  }
  return sends;
}

TEST(MuxSharedFlush, SharedFlushRunsAreDeterministic) {
  // NodeFlush rounds flush before the batch frames in a fixed order, so
  // shared FLUSH adds no scheduling ambiguity either: two runs of one
  // seed send the same frames between the same nodes at the same
  // virtual times.
  const auto wire_a = SharedFlushWire(34);
  const auto wire_b = SharedFlushWire(34);
  EXPECT_FALSE(wire_a.empty());
  EXPECT_EQ(wire_a, wire_b);
}

TEST(MuxSharedFlush, HistoryIsRegularPerKey) {
  // A concurrent workload recorded as a History and judged by the
  // per-key regular-register checker: frame coalescing and shared FLUSH
  // rounds must not reorder any single register's protocol phases.
  MuxRig rig(35, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  const History history = RunKeyDriverWorkload(rig, /*keys=*/4,
                                               /*rounds_per_key=*/3);
  ASSERT_EQ(history.size(), 24u);
  for (const OpRecord& rec : history.ops()) {
    EXPECT_EQ(rec.result, OpRecord::Result::kOk);
  }
  const CheckReport report = load::CheckRegularPerKey(history, {});
  EXPECT_TRUE(report.ok) << report.Summary();
  // With multiple registers per window, NodeFlush rounds amortize: far
  // fewer rounds than the 24 FLUSH phases the ops needed.
  EXPECT_LT(rig.client->node_flush_rounds(), 24u);
  EXPECT_GE(rig.client->node_flush_rounds(), 1u);
}

TEST(MuxSharedFlush, EquivocatingFlushAckStillRegularPerKey) {
  // Schedule exploration for the nastiest shared-flush attack: a
  // Byzantine server ACKS the node-level FLUSH (so the window appears
  // to drain) but equivocates the per-register labels/scopes inside the
  // ack, while its per-register automata also replay stale state. The
  // inner stale-ack filter must absorb the forged elements exactly like
  // forged per-register FLUSH_ACKs, and every key must stay regular.
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    MuxRig rig(seed, 1024, /*one_byzantine=*/true,
               Batch(/*max_ops=*/4, /*max_delay=*/50));
    rig.servers[2]->SetFlushAckMutator(MakeFlushEquivocator(seed * 7 + 1));
    const History history = RunKeyDriverWorkload(rig, /*keys=*/4,
                                                 /*rounds_per_key=*/2);
    ASSERT_EQ(history.size(), 16u) << "seed " << seed;
    for (const OpRecord& rec : history.ops()) {
      EXPECT_NE(rec.result, OpRecord::Result::kFailed) << "seed " << seed;
    }
    const CheckReport report = load::CheckRegularPerKey(history, {});
    EXPECT_TRUE(report.ok) << "seed " << seed << ": " << report.Summary();
  }
}

TEST(MuxSharedFlush, TransientCorruptionHeals) {
  // CorruptState clears the coordinator's window; stabilization must
  // still go through with shared flush on.
  MuxRig rig(36, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
  ASSERT_TRUE(rig.Put("k", Val("before")));
  for (std::size_t i = 0; i < 6; ++i) {
    rig.world->CorruptNode(rig.server_ids[i]);
  }
  rig.world->CorruptNode(rig.client_id);
  ASSERT_TRUE(rig.Put("k", Val("after")));
  for (int i = 0; i < 3; ++i) {
    auto got = rig.Get("k");
    ASSERT_EQ(got.status, OpStatus::kOk);
    EXPECT_EQ(got.value, Val("after"));
  }
}

// ---- Zero-delay batch windows ----------------------------------------

/// Sink endpoint for driving batch hooks directly from a test; the mux
/// client ignores the hook's endpoint argument (it routes through the
/// endpoint cached at OnStart).
struct NullEndpoint final : IEndpoint {
  void Send(NodeId, Bytes) override {}
  void SetTimer(VirtualTime, int) override {}
  [[nodiscard]] VirtualTime Now() const override { return 0; }
  [[nodiscard]] NodeId self() const override { return 0; }
  Rng& rng() override { return rng_; }
  Rng rng_{0};
};

TEST(MuxBatch, ZeroDelayCoalescesWithinOneScope) {
  // The default window (max_delay = 0) must NOT degenerate to one-op
  // rounds: ops submitted inside one batch scope (one runtime mailbox
  // drain) still coalesce into a single shared round, released when the
  // scope closes.
  MuxRig rig(37);
  NullEndpoint hook;
  int done = 0;
  rig.client->OnBatchStart(hook);
  for (int i = 0; i < 3; ++i) {
    rig.client->Put("key" + std::to_string(i), Val("v"),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  // Queued, not launched one-by-one: the open scope holds the window.
  EXPECT_EQ(rig.client->pending_ops(), 3u);
  EXPECT_EQ(rig.client->node_flush_rounds(), 0u);
  rig.client->OnBatchEnd(hook);
  EXPECT_EQ(rig.client->pending_ops(), 0u);
  EXPECT_EQ(rig.client->node_flush_rounds(), 1u);
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 3; }, 2'000'000));
}

TEST(MuxBatch, ZeroDelayLoneOpStartsImmediately) {
  // Outside any scope there is nothing to wait for: with the default
  // window (max_delay = 0) no timer is armed and the op's round starts
  // on submission.
  MuxRig rig(38);
  bool done = false;
  rig.client->Put("alpha", Val("1"), [&](const WriteOutcome& outcome) {
    EXPECT_EQ(outcome.status, OpStatus::kOk);
    done = true;
  });
  EXPECT_EQ(rig.client->pending_ops(), 0u);
  ASSERT_TRUE(rig.world->RunUntil([&] { return done; }, 2'000'000));
  auto got = rig.Get("alpha");
  ASSERT_EQ(got.status, OpStatus::kOk);
  EXPECT_EQ(got.value, Val("1"));
}

TEST(MuxBatch, ZeroDelaySameRegisterBackToBackTerminates) {
  // Back-to-back ops on the SAME register: each later one requeues
  // (register busy) and must restart via a reply-driven scope close —
  // never via a zero-delay timer, which would livelock the virtual
  // clock.
  MuxRig rig(39);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    rig.client->Put("k", Val("v" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 4; }, 4'000'000));
  EXPECT_EQ(rig.Get("k").value, Val("v3"));
}

TEST(MuxSharedFlush, ZeroDelaySameRegisterBackToBackTerminates) {
  // The same four back-to-back writes behind an eight-op zero-delay
  // window: the requeued ops never fill it, so only reply-driven scope
  // closes may restart them.
  MuxRig rig(41, 1024, false, Batch(/*max_ops=*/8, /*max_delay=*/0));
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    rig.client->Put("k", Val("v" + std::to_string(i)),
                    [&](const WriteOutcome& outcome) {
                      EXPECT_EQ(outcome.status, OpStatus::kOk);
                      ++done;
                    });
  }
  ASSERT_TRUE(rig.world->RunUntil([&] { return done == 4; }, 2'000'000));
  EXPECT_EQ(rig.Get("k").value, Val("v3"));
}

// ---- Wire shape ----------------------------------------------------------

// Every frame of a recorded workload, by sender: the mux client sends
// only MuxBatch frames and NodeFlush probes, the servers answer only
// with MuxBatch frames and NodeFlush acks, and no batch carries a
// per-register FLUSH — whatever the window.
void ExpectServingPathWireShape(MuxRig& rig) {
  rig.world->trace().Enable(true);
  const History history = RunKeyDriverWorkload(rig, /*keys=*/4,
                                               /*rounds_per_key=*/2);
  ASSERT_EQ(history.size(), 16u);
  std::size_t client_frames = 0;
  std::size_t server_frames = 0;
  for (const TraceEvent& event : rig.world->trace().events()) {
    if (event.kind != TraceKind::kSend) continue;
    auto decoded = DecodeMessage(event.frame());
    ASSERT_TRUE(decoded.ok());
    const Message& message = decoded.value();
    const std::string type = MessageTypeName(message);
    if (event.src == rig.client_id) {
      ++client_frames;
      EXPECT_TRUE(std::holds_alternative<MuxBatchMsg>(message) ||
                  std::holds_alternative<NodeFlushMsg>(message))
          << type;
    } else {
      ++server_frames;
      EXPECT_TRUE(std::holds_alternative<MuxBatchMsg>(message) ||
                  std::holds_alternative<NodeFlushAckMsg>(message))
          << type;
    }
    const auto* batch = std::get_if<MuxBatchMsg>(&message);
    if (batch == nullptr) continue;
    for (const MuxItem& item : batch->items) {
      auto inner = DecodeMessage(item.inner);
      ASSERT_TRUE(inner.ok());
      EXPECT_FALSE(std::holds_alternative<FlushMsg>(inner.value()) ||
                   std::holds_alternative<FlushAckMsg>(inner.value()))
          << "per-register " << MessageTypeName(inner.value()) << " in a "
          << type;
    }
  }
  EXPECT_GT(client_frames, 0u);
  EXPECT_GT(server_frames, 0u);
}

TEST(MuxWire, OnlyBatchAndNodeFlushFramesOnTheWire) {
  {
    SCOPED_TRACE("default window");
    MuxRig rig(51);
    ExpectServingPathWireShape(rig);
  }
  {
    SCOPED_TRACE("max_ops 4, max_delay 50");
    MuxRig rig(52, 1024, false, Batch(/*max_ops=*/4, /*max_delay=*/50));
    ExpectServingPathWireShape(rig);
  }
}

}  // namespace
}  // namespace sbft
