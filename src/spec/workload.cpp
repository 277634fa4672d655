#include "spec/workload.hpp"

#include <algorithm>
#include <memory>
#include <string>

namespace sbft {
namespace {

Value TaggedValue(std::size_t client, std::uint32_t seq) {
  const std::string text =
      "c" + std::to_string(client) + "#" + std::to_string(seq);
  return Value(text.begin(), text.end());
}

OpRecord::Result FromStatus(OpStatus status) {
  switch (status) {
    case OpStatus::kOk:
      return OpRecord::Result::kOk;
    case OpStatus::kAborted:
      return OpRecord::Result::kAborted;
    case OpStatus::kFailed:
      return OpRecord::Result::kFailed;
  }
  return OpRecord::Result::kFailed;
}

// All driver state lives on the heap and is captured by shared_ptr in
// every scheduled closure: if the event cap interrupts the workload,
// closures left in the world's queue must stay safe to run later.
struct Driver : std::enable_shared_from_this<Driver> {
  Driver(World& w, WorkloadTarget t, const WorkloadOptions& opts)
      : world(w),
        target(std::move(t)),
        options(opts),
        rng(opts.seed),
        remaining(target.n_clients, opts.ops_per_client),
        seq(target.n_clients, 0) {}

  World& world;
  WorkloadTarget target;
  WorkloadOptions options;
  Rng rng;
  std::vector<std::uint32_t> remaining;
  std::vector<std::uint32_t> seq;
  std::size_t outstanding = 0;
  WorkloadResult result;

  [[nodiscard]] bool AllDone() const {
    return outstanding == 0 &&
           std::all_of(remaining.begin(), remaining.end(),
                       [](std::uint32_t r) { return r == 0; });
  }

  void ScheduleNext(std::size_t client) {
    auto self = shared_from_this();
    world.ScheduleCall(1 + rng.NextBelow(options.max_think_time),
                       [self, client] { self->LaunchNext(client); });
  }

  void Record(std::size_t client, OpRecord::Kind kind, OpStatus status,
              VirtualTime invoked_at, Value value) {
    OpRecord record;
    record.kind = kind;
    record.result = FromStatus(status);
    record.client = static_cast<std::uint32_t>(client);
    record.invoked_at = invoked_at;
    record.returned_at = world.now();
    record.value = std::move(value);
    result.history.Add(std::move(record));
    if (kind == OpRecord::Kind::kWrite && status == OpStatus::kOk) {
      result.first_write_done = std::min(result.first_write_done, world.now());
    }
    outstanding--;
    ScheduleNext(client);
  }

  void LaunchNext(std::size_t client) {
    if (remaining[client] == 0) return;
    // A client left busy (a corrupted client's destroyed op, say) stops
    // its lane.
    if (!target.idle(client)) return;
    remaining[client]--;
    outstanding++;
    const VirtualTime invoked_at = world.now();
    auto self = shared_from_this();

    if (rng.NextBool(options.write_fraction)) {
      const Value value = TaggedValue(client, seq[client]++);
      target.start_write(
          client, value,
          [self, client, value, invoked_at](const WriteOutcome& out) {
            self->Record(client, OpRecord::Kind::kWrite, out.status,
                         invoked_at, value);
          });
    } else {
      target.start_read(client,
                        [self, client, invoked_at](const ReadOutcome& out) {
                          self->Record(client, OpRecord::Kind::kRead,
                                       out.status, invoked_at, out.value);
                        });
    }
  }
};

}  // namespace

WorkloadResult RunConcurrentWorkload(World& world,
                                     const WorkloadTarget& target,
                                     const WorkloadOptions& options) {
  auto driver = std::make_shared<Driver>(world, target, options);
  for (std::size_t client = 0; client < target.n_clients; ++client) {
    driver->ScheduleNext(client);
  }
  driver->result.all_completed = world.RunUntil(
      [&] { return driver->AllDone(); }, options.max_events);
  return driver->result;
}

WorkloadResult RunConcurrentWorkload(Deployment& deployment,
                                     const WorkloadOptions& options) {
  WorkloadTarget target;
  target.n_clients = deployment.n_clients();
  target.idle = [&deployment](std::size_t c) {
    return deployment.client(c).idle();
  };
  target.start_write = [&deployment](std::size_t c, Value value,
                                     WriteCallback done) {
    deployment.client(c).StartWrite(std::move(value), std::move(done));
  };
  target.start_read = [&deployment](std::size_t c, ReadCallback done) {
    deployment.client(c).StartRead(std::move(done));
  };
  return RunConcurrentWorkload(deployment.world(), target, options);
}

}  // namespace sbft
