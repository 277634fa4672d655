#include "baselines/lower_bound_replay.hpp"

#include <memory>
#include <sstream>
#include <vector>

#include "baselines/quorum_register.hpp"
#include "common/error.hpp"
#include "sim/world.hpp"

namespace sbft {
namespace {

Value Val(const std::string& text) { return Value(text.begin(), text.end()); }

struct Replay {
  explicit Replay(const ReplayOptions& opts)
      : options(opts),
        n(5 * opts.f + opts.extra_correct),
        k(n < 2 ? 2 : n),
        labels(k),
        world(World::Options{opts.seed,
                             std::make_unique<UniformDelay>(1, 4)}) {}

  const ReplayOptions& options;
  std::uint32_t n;
  std::uint32_t k;
  LabelingSystem labels;
  World world;

  // Group boundaries (server indices).
  // [0, a_fast) = A_fast, [a_fast, a_slow_end) = A_slow,
  // [a_slow_end, s4_end) = S4, [s4_end, n) = Byzantine.
  std::uint32_t a_fast = 0;
  std::uint32_t a_slow_end = 0;
  std::uint32_t s4_end = 0;

  std::vector<NodeId> server_ids;
  std::vector<NqServer*> correct_servers;
  std::vector<NqScriptedServer*> byz_servers;
  NqClient* writer = nullptr;
  NqClient* reader = nullptr;
  NodeId writer_id = 0;
  NodeId reader_id = 0;

  Timestamp tsx, tb, ts0, ts1, ts2;

  void HoldGroup(std::uint32_t lo, std::uint32_t hi, NodeId client,
                 bool to_client, bool from_client, bool in_flight = false) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      if (to_client) world.HoldChannel(server_ids[i], client, in_flight);
      if (from_client) world.HoldChannel(client, server_ids[i], in_flight);
    }
  }
  void ReleaseGroup(std::uint32_t lo, std::uint32_t hi, NodeId client,
                    bool to_client, bool from_client) {
    for (std::uint32_t i = lo; i < hi; ++i) {
      if (to_client) world.ReleaseChannel(server_ids[i], client);
      if (from_client) world.ReleaseChannel(client, server_ids[i]);
    }
  }
};

}  // namespace

std::string ReplayResult::Summary() const {
  std::ostringstream out;
  out << "r1=" << std::string(r1_value.begin(), r1_value.end())
      << " r2=" << std::string(r2_value.begin(), r2_value.end())
      << " -> " << (violated() ? "REGULARITY VIOLATED" : "regular");
  return out.str();
}

ReplayResult RunTheorem1Replay(const ReplayOptions& options) {
  SBFT_ASSERT(options.f >= 1);
  Replay rig(options);
  const std::uint32_t f = options.f;
  rig.a_fast = 2 * f + options.extra_correct;
  rig.a_slow_end = rig.a_fast + f;
  rig.s4_end = rig.a_slow_end + f;

  // --- Adversary's precomputation (it controls the initial state, the
  // schedule and its own replies, and the protocol is deterministic).
  // The proof needs the planted label ts2 to dominate BOTH ts0 and ts1
  // ("ts2 > ts0", "ts1 < ts2") — domination is not transitive, so the
  // adversary arranges it by having its Byzantine servers report ts0
  // (instead of tb) during w2's GET_TS phase: the writer then computes
  // exactly next({ts0, ts1}), which dominates both by Definition 2.
  Rng label_rng(options.seed + 7);
  rig.tsx = Timestamp{rig.labels.Initial(), 0};
  const ClientId writer_client_id = rig.n + 0;
  auto next_of = [&](std::vector<Label> in) {
    return Timestamp{rig.labels.Next(in), writer_client_id};
  };
  rig.tb = Timestamp{RandomValidLabel(label_rng, rig.labels.params()), 0};
  rig.ts0 = next_of({rig.tsx.label, rig.tb.label});
  rig.ts1 = next_of({rig.ts0.label, rig.tb.label});
  rig.ts2 = next_of({rig.ts0.label, rig.ts1.label});
  SBFT_ASSERT(rig.labels.Precedes(rig.ts0.label, rig.ts2.label));
  SBFT_ASSERT(rig.labels.Precedes(rig.ts1.label, rig.ts2.label));

  // --- Build the world.
  for (std::uint32_t i = 0; i < rig.s4_end; ++i) {
    auto server = std::make_unique<NqServer>(LabelDomain(rig.k));
    if (i >= rig.a_slow_end) {
      // S4 group: transient fault planted ts2 with a garbage value.
      server->SetState(rig.ts2, Val("corrupt-s4"));
    } else {
      server->SetState(rig.tsx, Val("corrupt-x"));
    }
    rig.correct_servers.push_back(server.get());
    rig.server_ids.push_back(rig.world.AddNode(std::move(server)));
  }
  for (std::uint32_t i = rig.s4_end; i < rig.n; ++i) {
    auto server = std::make_unique<NqScriptedServer>();
    server->ts_for_get_ts = rig.tb;
    rig.byz_servers.push_back(server.get());
    rig.server_ids.push_back(rig.world.AddNode(std::move(server)));
  }
  auto writer = std::make_unique<NqClient>(
      rig.server_ids, Tm1rRules(f, rig.k), writer_client_id);
  rig.writer = writer.get();
  rig.writer_id = rig.world.AddNode(std::move(writer));
  auto reader = std::make_unique<NqClient>(rig.server_ids,
                                           Tm1rRules(f, rig.k), rig.n + 1);
  rig.reader = reader.get();
  rig.reader_id = rig.world.AddNode(std::move(reader));
  // Run OnStart hooks so clients capture their endpoints.
  rig.world.RunUntil([] { return true; }, 0);

  ReplayResult result;
  History& history = result.history;

  auto drive_write = [&](const Value& value) -> bool {
    OpRecord record;
    record.kind = OpRecord::Kind::kWrite;
    record.client = 0;
    record.invoked_at = rig.world.now();
    record.value = value;
    bool done = false;
    rig.writer->StartWrite(value, [&](bool ok) {
      record.result =
          ok ? OpRecord::Result::kOk : OpRecord::Result::kFailed;
      record.returned_at = rig.world.now();
      done = true;
    });
    const bool completed =
        rig.world.RunUntil([&] { return done; }, 2'000'000);
    if (completed) history.Add(record);
    return completed;
  };
  auto drive_read = [&](Bytes* out_value) -> bool {
    OpRecord record;
    record.kind = OpRecord::Kind::kRead;
    record.client = 1;
    record.invoked_at = rig.world.now();
    bool done = false;
    rig.reader->StartRead([&](const NqReadOutcome& outcome) {
      record.result = outcome.ok ? OpRecord::Result::kOk
                                 : OpRecord::Result::kAborted;
      record.returned_at = rig.world.now();
      record.value = outcome.value;
      *out_value = outcome.value;
      done = true;
    });
    const bool completed =
        rig.world.RunUntil([&] { return done; }, 2'000'000);
    if (completed) history.Add(record);
    return completed;
  };

  // --- w0 and w1: S4 held in both directions ("s4 is slow").
  rig.HoldGroup(rig.a_slow_end, rig.s4_end, rig.writer_id, true, true);
  if (!drive_write(Val("v0"))) return result;
  const VirtualTime stabilized_from = rig.world.now();
  if (!drive_write(Val("v1"))) return result;

  // --- r1: A_slow -> reader held; Byzantine mimics S4's (ts2, value).
  for (NqScriptedServer* byz : rig.byz_servers) {
    byz->read_script = {{rig.ts2, Val("corrupt-s4")}};
  }
  rig.HoldGroup(rig.a_fast, rig.a_slow_end, rig.reader_id, true, false);
  if (!drive_read(&result.r1_value)) return result;

  // --- w2: S4 receives the write but its GET_TS reply is withheld until
  // the timestamp (exactly ts2) has been computed; the WRITE to A_slow
  // is frozen in flight ("s3 is slow in modifying its timestamp"). The
  // Byzantine group now reports ts0 so the writer computes
  // next({ts1, ts0}) = ts2 (see the precomputation note above).
  for (NqScriptedServer* byz : rig.byz_servers) {
    byz->ts_for_get_ts = rig.ts0;
  }
  rig.ReleaseGroup(rig.a_slow_end, rig.s4_end, rig.writer_id, false, true);
  // S4 -> writer stays held from the w0/w1 phase.
  {
    OpRecord record;
    record.kind = OpRecord::Kind::kWrite;
    record.client = 0;
    record.invoked_at = rig.world.now();
    record.value = Val("v2");
    bool done = false;
    rig.writer->StartWrite(Val("v2"), [&](bool ok) {
      record.result =
          ok ? OpRecord::Result::kOk : OpRecord::Result::kFailed;
      record.returned_at = rig.world.now();
      done = true;
    });
    // Wait until the writer commits to its write timestamp...
    const bool ts_ready = rig.world.RunUntil(
        [&] { return done || rig.writer->last_write_ts() == rig.ts2; },
        2'000'000);
    if (!ts_ready) return result;
    // ...then freeze the WRITEs still in flight towards A_slow and let
    // S4's replies through (its stale GET_TS answers are discarded by
    // the rid check; its fresh WRITE ack completes the quorum — the
    // proof's configuration (ts2, ts2, ts1, ts2, tb)).
    rig.HoldGroup(rig.a_fast, rig.a_slow_end, rig.writer_id, false, true,
                  /*in_flight=*/true);
    rig.ReleaseGroup(rig.a_slow_end, rig.s4_end, rig.writer_id, true, false);
    if (!rig.world.RunUntil([&] { return done; }, 2'000'000)) return result;
    history.Add(record);
  }

  // --- r2: S4 -> reader held; Byzantine mimics A_slow's (ts1, v1).
  for (NqScriptedServer* byz : rig.byz_servers) {
    byz->read_script = {{rig.ts1, Val("v1")}};
  }
  rig.ReleaseGroup(rig.a_fast, rig.a_slow_end, rig.reader_id, true, false);
  rig.HoldGroup(rig.a_slow_end, rig.s4_end, rig.reader_id, true, false);
  if (!drive_read(&result.r2_value)) return result;

  result.all_ops_completed = true;
  CheckOptions check;
  check.stabilized_from = stabilized_from;
  check.grandfathered_values = {Val("corrupt-x")};
  result.report = CheckRegular(history, check);
  return result;
}

}  // namespace sbft
