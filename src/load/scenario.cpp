#include "load/scenario.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sbft::load {

std::vector<ScheduledOp> BuildSchedule(const Scenario& scenario) {
  SBFT_ASSERT(scenario.n_keys > 0);
  // Independent child streams per concern: changing e.g. the mix does
  // not reshuffle arrival times.
  Rng root(scenario.seed);
  Rng arrival_rng = root.Fork();
  Rng key_rng = root.Fork();
  Rng kind_rng = root.Fork();

  std::vector<RatePhase> phases = scenario.phases;
  if (phases.empty()) {
    phases.push_back({scenario.duration_us, scenario.rate_ops_per_sec});
  }

  ZipfGenerator keys(scenario.n_keys, scenario.zipf_skew, key_rng);
  std::vector<std::uint32_t> next_seq(scenario.n_keys, 0);
  std::vector<ScheduledOp> schedule;

  std::uint64_t phase_start = 0;
  PoissonProcess arrivals(phases.front().rate_per_sec, arrival_rng);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const RatePhase& phase = phases[p];
    SBFT_ASSERT(phase.rate_per_sec > 0.0);
    arrivals.SetRate(phase.rate_per_sec);
    arrivals.ResetTo(phase_start);  // memoryless restart, exact
    const std::uint64_t phase_end = phase_start + phase.duration_us;
    while (true) {
      const std::uint64_t at = arrivals.NextArrivalUs();
      if (at >= phase_end) break;  // arrival falls into the next phase
      ScheduledOp op;
      op.at_us = at;
      op.key = static_cast<std::uint32_t>(keys.Next());
      op.is_write = !kind_rng.NextBool(scenario.read_fraction);
      if (op.is_write) op.seq = next_seq[op.key]++;
      schedule.push_back(op);
    }
    phase_start = phase_end;
  }
  return schedule;
}

Value ValueFor(const ScheduledOp& op) {
  const std::string text =
      "k" + std::to_string(op.key) + "#" + std::to_string(op.seq);
  return Value(text.begin(), text.end());
}

ShardedCluster::Options ShardedOptionsFor(const Scenario& scenario) {
  ShardedCluster::Options options;
  options.group.config = ProtocolConfig::ForServers(scenario.n_servers);
  options.group.n_clients = scenario.n_keys;
  options.group.seed = scenario.seed;
  options.group.shaping = scenario.shaping;
  options.n_groups = scenario.n_groups;
  return options;
}

namespace {

Scenario Base(const char* name, double rate, std::uint64_t duration_us,
              std::uint64_t seed) {
  Scenario scenario;
  scenario.name = name;
  scenario.rate_ops_per_sec = rate;
  scenario.duration_us = duration_us;
  scenario.seed = seed;
  return scenario;
}

}  // namespace

Scenario BaselineScenario(double rate, std::uint64_t duration_us,
                          std::uint64_t seed) {
  return Base("baseline", rate, duration_us, seed);
}

Scenario ZipfHotScenario(double rate, std::uint64_t duration_us,
                         std::uint64_t seed) {
  Scenario scenario = Base("zipf_hot", rate, duration_us, seed);
  scenario.zipf_skew = 1.2;
  return scenario;
}

Scenario FlashCrowdScenario(double base_rate, std::uint64_t duration_us,
                            std::uint64_t seed) {
  Scenario scenario = Base("flash_crowd", base_rate, duration_us, seed);
  const std::uint64_t fifth = duration_us / 5;
  scenario.phases = {
      {2 * fifth, base_rate},
      {fifth, 4.0 * base_rate},
      {duration_us - 3 * fifth, base_rate},
  };
  return scenario;
}

Scenario ReadHeavyScenario(double rate, std::uint64_t duration_us,
                           std::uint64_t seed) {
  Scenario scenario = Base("read_heavy", rate, duration_us, seed);
  scenario.read_fraction = 0.9;
  return scenario;
}

Scenario SlowLinkScenario(double rate, std::uint64_t duration_us,
                          std::uint64_t delay_us, std::uint64_t seed) {
  Scenario scenario = Base("slow_link", rate, duration_us, seed);
  scenario.shaping.delay_us = delay_us;
  scenario.shaping.jitter_us = delay_us / 4;
  return scenario;
}

Scenario CorruptionScenario(double rate, std::uint64_t duration_us,
                            std::uint64_t seed) {
  Scenario scenario = Base("corruption", rate, duration_us, seed);
  scenario.corruptions.push_back({duration_us / 4, {}});
  return scenario;
}

Scenario ShardedScenario(std::size_t n_groups, double rate,
                         std::uint64_t duration_us, std::uint64_t seed) {
  Scenario scenario = Base(("g" + std::to_string(n_groups)).c_str(), rate,
                           duration_us, seed);
  scenario.n_groups = n_groups;
  return scenario;
}

Scenario MigrateScenario(double rate, std::uint64_t duration_us,
                         std::uint64_t seed) {
  Scenario scenario = Base("g2_migrate", rate, duration_us, seed);
  scenario.n_groups = 1;
  scenario.group_add_at_us = duration_us / 3;
  return scenario;
}

}  // namespace sbft::load
