#include "fuzz/runner.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include <map>
#include <string>

#include "core/deployment.hpp"
#include "core/mux.hpp"
#include "net/message.hpp"
#include "spec/workload.hpp"

namespace sbft::fuzz {
namespace {

// Seed separation: each randomness consumer forks off the scenario seed
// through a distinct salt so shrinking one dimension (e.g. dropping a
// Byzantine client) does not perturb the others more than necessary.
constexpr std::uint64_t kWorkloadSeedSalt = 0x3C6EF372FE94F82Bull;

std::string DescribeFrame(BytesView frame) {
  auto decoded = DecodeMessage(frame);
  return decoded.ok() ? MessageTypeName(decoded.value()) : "garbage";
}

void ApplyFault(World& world, Deployment& deployment,
                const FaultInjection& fault) {
  switch (fault.kind) {
    case FaultKind::kCorruptServer:
      world.CorruptNode(deployment.server_node(fault.a));
      break;
    case FaultKind::kCorruptClient:
      world.CorruptNode(deployment.client_node(fault.a));
      break;
    case FaultKind::kGarbageFrames:
      world.InjectGarbageFrames(deployment.client_node(fault.a),
                                deployment.server_node(fault.b),
                                fault.count);
      world.InjectGarbageFrames(deployment.server_node(fault.b),
                                deployment.client_node(fault.a),
                                fault.count);
      break;
    case FaultKind::kScrambleChannel:
      world.ScrambleChannel(deployment.client_node(fault.a),
                            deployment.server_node(fault.b));
      world.ScrambleChannel(deployment.server_node(fault.b),
                            deployment.client_node(fault.a));
      break;
  }
}

// ---- Mux / shared-FLUSH scenarios ------------------------------------

/// Register hosting logical client `c` (offset mirrors the runtime's
/// ShardedCluster, which hosts key k as register k + 1: register 0
/// stays free).
RegisterId MuxRegisterOf(std::size_t client) { return client + 1; }

/// Per-key regularity: each logical client owns its own register, so
/// the history splits by OpRecord::client and every slice must satisfy
/// CheckRegular independently (the fuzz library deliberately re-derives
/// this partition instead of linking the load library).
///
/// The Definition 1 suffix anchors per register, not globally: key k's
/// guarantee starts at the first complete write ON k invoked after the
/// last fault. A key never written post-fault has no anchor — its reads
/// may legally return whatever the transient left behind (including the
/// initial value), so nothing on it is checked.
CheckReport CheckMuxRegularPerKey(const History& history,
                                  const CheckOptions& base,
                                  VirtualTime last_fault_time) {
  std::map<std::uint32_t, History> split;
  for (const OpRecord& op : history.ops()) {
    split[op.client].Add(OpRecord(op));
  }
  CheckReport merged;
  for (const auto& [key, sub] : split) {
    CheckOptions per_key = base;
    per_key.stabilized_from = kTimeForever;
    for (const OpRecord& op : sub.ops()) {
      if (op.kind == OpRecord::Kind::kWrite &&
          op.result == OpRecord::Result::kOk &&
          op.invoked_at > last_fault_time) {
        per_key.stabilized_from =
            std::min(per_key.stabilized_from, op.returned_at);
      }
    }
    if (base.max_violations != 0) {
      if (merged.violations.size() >= base.max_violations) break;
      per_key.max_violations = base.max_violations - merged.violations.size();
    }
    const CheckReport report = CheckRegular(sub, per_key);
    for (const std::string& violation : report.violations) {
      merged.AddViolation("key " + std::to_string(key) + ": " + violation);
    }
  }
  return merged;
}

/// Scenario execution in mux mode (scenario.mux_window > 0): MuxServer
/// replicas, one MuxClient with batching + shared FLUSH rounds, per-key
/// regularity. Fault operands map naturally — all logical clients live
/// in the one mux client node.
RunOutcome RunMuxScenario(const Scenario& scenario,
                          const RunOptions& options) {
  const ProtocolConfig config = scenario.Config();

  auto delay = std::make_unique<ChannelOverrideDelay>(
      std::make_unique<UniformDelay>(scenario.delay_lo, scenario.delay_hi));
  ChannelOverrideDelay* overrides = delay.get();
  World world(World::Options{scenario.seed, std::move(delay)});
  world.trace().Enable(options.record_trace);

  std::map<std::uint32_t, ByzantineStrategy> byz;
  for (const auto& spec : scenario.byz_servers) {
    byz[spec.server] = spec.strategy;
  }

  std::vector<NodeId> server_ids;
  for (std::size_t i = 0; i < config.n; ++i) {
    MuxServer::ServerFactory factory;
    const auto it = byz.find(static_cast<std::uint32_t>(i));
    if (it != byz.end()) {
      factory = [strategy = it->second, config, i,
                 seed = scenario.seed * 131 + i](RegisterId) {
        return MakeByzantineServer(strategy, config, i, seed);
      };
    }
    auto server = std::make_unique<MuxServer>(config, i,
                                              /*max_registers=*/1024,
                                              std::move(factory));
    if (it != byz.end() && scenario.mux_flush_equivocate != 0) {
      // The per-register-Byzantine servers are ALSO the node-flush
      // equivocators, so the <= f adversary bound holds automatically.
      std::uint64_t salt = scenario.seed ^ (0x9E3779B97F4A7C15ull + i);
      server->SetFlushAckMutator(MakeFlushEquivocator(SplitMix64(salt)));
    }
    server_ids.push_back(world.AddNode(std::move(server)));
  }

  MuxBatchOptions batch;
  batch.max_ops = scenario.mux_window;
  batch.max_delay = 50;  // sim ticks; same scale as the delay policy
  auto client_owner = std::make_unique<MuxClient>(
      config, server_ids, static_cast<ClientId>(config.n),
      /*max_registers=*/1024, batch);
  MuxClient* mux = client_owner.get();
  const NodeId client_node = world.AddNode(std::move(client_owner));
  world.RunUntil([] { return true; }, 0);  // OnStart caches endpoints

  // Directed slowdowns: every logical client shares the mux node, so
  // client operands collapse onto it (the per-channel direction is
  // still meaningful — there is one channel pair per server).
  for (const auto& slow : scenario.slowdowns) {
    const NodeId server = server_ids[slow.server];
    if (slow.client_to_server) {
      overrides->SetOverride(client_node, server, slow.delay);
    } else {
      overrides->SetOverride(server, client_node, slow.delay);
    }
  }

  std::uint64_t byz_client_salt = scenario.seed ^ 0xB12A97CE5EEDull;
  for (const auto& spec : scenario.byz_clients) {
    world.AddNode(std::make_unique<ByzantineClient>(
        spec.strategy, server_ids, config.k, SplitMix64(byz_client_salt),
        spec.rounds));
  }

  const auto apply_fault = [&world, &server_ids,
                            client_node](const FaultInjection& fault) {
    switch (fault.kind) {
      case FaultKind::kCorruptServer:
        world.CorruptNode(server_ids[fault.a]);
        break;
      case FaultKind::kCorruptClient:
        world.CorruptNode(client_node);
        break;
      case FaultKind::kGarbageFrames:
        world.InjectGarbageFrames(client_node, server_ids[fault.b],
                                  fault.count);
        world.InjectGarbageFrames(server_ids[fault.b], client_node,
                                  fault.count);
        break;
      case FaultKind::kScrambleChannel:
        world.ScrambleChannel(client_node, server_ids[fault.b]);
        world.ScrambleChannel(server_ids[fault.b], client_node);
        break;
    }
  };
  VirtualTime last_fault_time = 0;
  for (const auto& fault : scenario.faults) {
    last_fault_time = std::max(last_fault_time, fault.at);
    if (fault.at == 0) {
      apply_fault(fault);
    } else {
      const FaultInjection scheduled = fault;
      world.ScheduleCall(fault.at,
                         [apply_fault, scheduled] { apply_fault(scheduled); });
    }
  }

  WorkloadOptions workload;
  workload.ops_per_client = scenario.ops_per_client;
  workload.write_fraction = scenario.write_percent / 100.0;
  workload.max_think_time = scenario.max_think_time;
  std::uint64_t workload_salt = scenario.seed + kWorkloadSeedSalt;
  workload.seed = SplitMix64(workload_salt);
  workload.max_events = scenario.max_events;

  // Logical client c drives sequential ops on register c + 1; distinct
  // clients interleave in virtual time. A corrupted mux client fails
  // every in-flight op through its callback (in ascending register
  // order, so the driver's rng draws replay).
  WorkloadTarget target;
  target.n_clients = scenario.n_clients;
  target.idle = [mux](std::size_t c) { return mux->idle(MuxRegisterOf(c)); };
  target.start_write = [mux](std::size_t c, Value value, WriteCallback done) {
    mux->StartWrite(MuxRegisterOf(c), std::move(value), std::move(done));
  };
  target.start_read = [mux](std::size_t c, ReadCallback done) {
    mux->StartRead(MuxRegisterOf(c), std::move(done));
  };
  WorkloadResult result = RunConcurrentWorkload(world, target, workload);

  RunOutcome outcome;
  outcome.all_completed = result.all_completed;
  outcome.history = std::move(result.history);

  // Global anchor for reporting; the checker and checked_reads count
  // re-anchor per key (each key is its own register instance).
  outcome.stabilized_from = kTimeForever;
  std::map<std::uint32_t, VirtualTime> key_anchor;
  for (const OpRecord& op : outcome.history.ops()) {
    if (op.kind == OpRecord::Kind::kWrite &&
        op.result == OpRecord::Result::kOk &&
        op.invoked_at > last_fault_time) {
      auto [it, inserted] = key_anchor.emplace(op.client, op.returned_at);
      if (!inserted) it->second = std::min(it->second, op.returned_at);
      outcome.stabilized_from =
          std::min(outcome.stabilized_from, op.returned_at);
    }
  }
  for (const OpRecord& op : outcome.history.ops()) {
    if (op.result == OpRecord::Result::kFailed) outcome.ops_failed++;
    if (op.kind != OpRecord::Kind::kRead) continue;
    if (op.result == OpRecord::Result::kAborted) outcome.reads_aborted++;
    const auto anchor = key_anchor.find(op.client);
    if (op.result == OpRecord::Result::kOk && anchor != key_anchor.end() &&
        op.invoked_at >= anchor->second) {
      outcome.checked_reads++;
    }
  }

  CheckOptions check;
  check.max_violations = options.max_violations;
  const bool servers_corrupted =
      std::any_of(scenario.faults.begin(), scenario.faults.end(),
                  [](const FaultInjection& fault) {
                    return fault.kind == FaultKind::kCorruptServer;
                  });
  if (!servers_corrupted) check.grandfathered_values = {Value{}};
  outcome.report =
      CheckMuxRegularPerKey(outcome.history, check, last_fault_time);

  if (options.record_trace) {
    outcome.trace = FormatTrace(world.trace().events(), DescribeFrame);
  }
  return outcome;
}

}  // namespace

RunOutcome RunScenario(const Scenario& input, const RunOptions& options) {
  Scenario scenario = input;
  scenario.Normalize();
  if (scenario.mux_window > 0) return RunMuxScenario(scenario, options);

  Deployment::Options deploy;
  deploy.config = scenario.Config();
  deploy.seed = scenario.seed;
  deploy.n_clients = scenario.n_clients;
  for (const auto& spec : scenario.byz_servers) {
    deploy.byzantine[spec.server] = spec.strategy;
  }
  auto delay = std::make_unique<ChannelOverrideDelay>(
      std::make_unique<UniformDelay>(scenario.delay_lo, scenario.delay_hi));
  ChannelOverrideDelay* overrides = delay.get();
  deploy.delay = std::move(delay);

  Deployment deployment(std::move(deploy));
  World& world = deployment.world();
  world.trace().Enable(options.record_trace);

  for (const auto& slow : scenario.slowdowns) {
    const NodeId client = deployment.client_node(slow.client);
    const NodeId server = deployment.server_node(slow.server);
    if (slow.client_to_server) {
      overrides->SetOverride(client, server, slow.delay);
    } else {
      overrides->SetOverride(server, client, slow.delay);
    }
  }

  // Byzantine clients are extra automata outside the deployment; they
  // attack the same server set the honest clients use.
  std::uint64_t byz_client_salt = scenario.seed ^ 0xB12A97CE5EEDull;
  for (const auto& spec : scenario.byz_clients) {
    world.AddNode(std::make_unique<ByzantineClient>(
        spec.strategy, deployment.server_nodes(), deployment.config().k,
        SplitMix64(byz_client_salt), spec.rounds));
  }

  VirtualTime last_fault_time = 0;
  for (const auto& fault : scenario.faults) {
    last_fault_time = std::max(last_fault_time, fault.at);
    if (fault.at == 0) {
      ApplyFault(world, deployment, fault);
    } else {
      const FaultInjection scheduled = fault;
      world.ScheduleCall(fault.at, [&world, &deployment, scheduled] {
        ApplyFault(world, deployment, scheduled);
      });
    }
  }

  WorkloadOptions workload;
  workload.ops_per_client = scenario.ops_per_client;
  workload.write_fraction = scenario.write_percent / 100.0;
  workload.max_think_time = scenario.max_think_time;
  std::uint64_t workload_salt = scenario.seed + kWorkloadSeedSalt;
  workload.seed = SplitMix64(workload_salt);
  workload.max_events = scenario.max_events;

  WorkloadResult result = RunConcurrentWorkload(deployment, workload);

  RunOutcome outcome;
  outcome.all_completed = result.all_completed;
  outcome.history = std::move(result.history);

  // Re-anchor the Definition 1 suffix past the last injected fault: the
  // paper's guarantee starts at the first complete write issued after
  // transient faults cease.
  outcome.stabilized_from = kTimeForever;
  for (const OpRecord& op : outcome.history.ops()) {
    if (op.kind == OpRecord::Kind::kWrite &&
        op.result == OpRecord::Result::kOk &&
        op.invoked_at > last_fault_time) {
      outcome.stabilized_from =
          std::min(outcome.stabilized_from, op.returned_at);
    }
  }

  for (const OpRecord& op : outcome.history.ops()) {
    if (op.result == OpRecord::Result::kFailed) outcome.ops_failed++;
    if (op.kind != OpRecord::Kind::kRead) continue;
    if (op.result == OpRecord::Result::kAborted) outcome.reads_aborted++;
    if (op.result == OpRecord::Result::kOk &&
        op.invoked_at >= outcome.stabilized_from) {
      outcome.checked_reads++;
    }
  }

  CheckOptions check;
  check.stabilized_from = outcome.stabilized_from;
  check.max_violations = options.max_violations;
  // Without server corruption the pre-write register content really is
  // the pristine initial value, which reads overlapping the stabilizing
  // write may legally return (Validity's second disjunct). Corruption
  // replaces it with garbage, so nothing is grandfathered then — any
  // unwritten value returned post-stabilization is a violation.
  const bool servers_corrupted =
      std::any_of(scenario.faults.begin(), scenario.faults.end(),
                  [](const FaultInjection& fault) {
                    return fault.kind == FaultKind::kCorruptServer;
                  });
  if (!servers_corrupted) check.grandfathered_values = {Value{}};
  outcome.report = CheckRegular(outcome.history, check);

  if (options.record_trace) {
    outcome.trace = FormatTrace(world.trace().events(), DescribeFrame);
  }
  return outcome;
}

}  // namespace sbft::fuzz
