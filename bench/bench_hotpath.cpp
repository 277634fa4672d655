// E10: messaging hot-path cost. Counts heap allocations and bytes per
// operation on the E2 throughput workload shape (n=6, f=1, sequential
// write+read pairs on a clean deployment), plus a pure encode/decode
// microbench. This is the measurement the zero-copy messaging spine is
// judged against: the pre-refactor baseline lives in EXPERIMENTS.md and
// the acceptance bar is >= 30% fewer allocations per op with frames/sec
// no worse.
//
// Allocation counting overrides global operator new/delete in this
// translation unit only. The sim world is single-threaded, so deltas
// around the measured loop are exact, not sampled.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "common/buffer_pool.hpp"
#include "core/deployment.hpp"
#include "net/message.hpp"
#include "sim/world.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_calls{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

struct AllocSnapshot {
  std::uint64_t calls;
  std::uint64_t bytes;
};

AllocSnapshot SnapAllocs() {
  return {g_alloc_calls.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

void* CountedAlloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

using namespace sbft;
using namespace sbft::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sequential write+read pairs on a clean n=6 deployment — the E2
/// workload shape without corruption, so every op takes the fast path.
void RunOps(JsonReport& report, std::uint64_t ops) {
  Deployment::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.seed = 42;
  options.n_clients = 1;
  Deployment deployment(std::move(options));

  // Warm up: populate label pools, server windows, channel state.
  // Allocation bytes per pair keep falling for the first ~350 pairs, so
  // both modes warm up well past that and measure the steady state: the
  // 100 pairs of --smoke and the 2,000 of a full run then read alike.
  for (int i = 0; i < 512; ++i) {
    (void)deployment.Write(0, Value{static_cast<std::uint8_t>(i)});
    (void)deployment.Read(0);
  }

  const std::uint64_t frames_before = deployment.world().stats().frames_sent;
  const AllocSnapshot before = SnapAllocs();
  const double t0 = Now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    auto write = deployment.Write(0, Value{static_cast<std::uint8_t>(i)});
    auto read = deployment.Read(0);
    if (!write.completed || !read.completed) {
      Row("op %llu did not complete; deployment wedged",
          static_cast<unsigned long long>(i));
      std::exit(1);
    }
  }
  const double elapsed = Now() - t0;
  const AllocSnapshot after = SnapAllocs();
  const std::uint64_t frames =
      deployment.world().stats().frames_sent - frames_before;

  const double total_ops = static_cast<double>(2 * ops);  // write + read
  const double allocs_per_op =
      static_cast<double>(after.calls - before.calls) / total_ops;
  const double bytes_per_op =
      static_cast<double>(after.bytes - before.bytes) / total_ops;
  const double frames_per_op = static_cast<double>(frames) / total_ops;
  const double ops_per_sec = total_ops / elapsed;
  const double frames_per_sec = static_cast<double>(frames) / elapsed;

  Row("%-26s %12.1f", "allocs/op", allocs_per_op);
  Row("%-26s %12.1f", "alloc bytes/op", bytes_per_op);
  Row("%-26s %12.1f", "frames/op", frames_per_op);
  Row("%-26s %12.0f", "ops/sec", ops_per_sec);
  Row("%-26s %12.0f", "frames/sec", frames_per_sec);

  report.Metric("hotpath.allocs_per_op", allocs_per_op, "allocs");
  report.Metric("hotpath.alloc_bytes_per_op", bytes_per_op, "bytes");
  report.Metric("hotpath.frames_per_op", frames_per_op, "frames");
  report.Metric("hotpath.ops_per_sec", ops_per_sec, "ops/s");
  report.Metric("hotpath.frames_per_sec", frames_per_sec, "frames/s");
}

/// Token-ring echo automaton for the raw scheduler microbench: every
/// delivered frame is immediately re-sent to the next node, so each
/// processed event is exactly one calendar-queue push + pop + dispatch
/// with a live pooled frame.
class EchoRing final : public Automaton {
 public:
  EchoRing(NodeId ring_size, bool seeds_token)
      : ring_size_(ring_size), seeds_token_(seeds_token) {}

  void OnStart(IEndpoint& endpoint) override {
    if (seeds_token_) {
      endpoint.Send((endpoint.self() + 1) % ring_size_, Bytes{0x42});
    }
  }

  void OnFrame(NodeId /*from*/, BytesView frame,
               IEndpoint& endpoint) override {
    Bytes out = FramePool().Acquire();
    out.assign(frame.begin(), frame.end());
    endpoint.Send((endpoint.self() + 1) % ring_size_, std::move(out));
  }

 private:
  NodeId ring_size_;
  bool seeds_token_;
};

/// Raw event-loop throughput: n=8 ring, 4 tokens in flight, no protocol
/// logic — sim.events_per_sec isolates the scheduler (queue + channel
/// table + dispatch) from quorum work, which is what the calendar-queue
/// overhaul is judged against.
void RunSimEvents(JsonReport& report, std::uint64_t events) {
  World world(World::Options{7, nullptr});
  constexpr NodeId kRing = 8;
  for (NodeId i = 0; i < kRing; ++i) {
    world.AddNode(std::make_unique<EchoRing>(kRing, i < 4));
  }
  world.Run(512);  // warm up: frame pool, channel table, bucket ring

  const double t0 = Now();
  const std::uint64_t processed = world.Run(events);
  const double elapsed = Now() - t0;
  const double events_per_sec = static_cast<double>(processed) / elapsed;

  Row("%-26s %12.0f", "sim events/sec", events_per_sec);
  report.Metric("sim.events_per_sec", events_per_sec, "events/s");
}

/// Pure codec cost: encode + decode of a representative quorum message
/// (ReplyMsg with a full old_vals window), no sim in the loop.
void RunCodec(JsonReport& report, std::uint64_t iters) {
  auto make_ts = [](std::uint32_t sting, ClientId writer) {
    Timestamp ts;
    ts.label.sting = sting;
    ts.label.antistings = {1, 2, 3, 4, 5, 6};  // k = n = 6 antistings
    ts.writer_id = writer;
    return ts;
  };
  // Owned storage outliving the ReplyMsg views below.
  const Value current_val{0xAA, 0xBB, 0xCC, 0xDD};
  const Value old_val{0x01, 0x02, 0x03, 0x04};
  ReplyMsg reply;
  reply.label = 7;
  reply.ts = make_ts(12, 4);
  reply.value = current_val;
  for (std::uint32_t i = 0; i < 6; ++i) {
    reply.old_vals.push_back(WireVersioned{old_val, make_ts(i, 2)});
  }
  const Message message = reply;

  const AllocSnapshot before = SnapAllocs();
  const double t0 = Now();
  std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    Bytes frame = EncodeMessage(message);
    auto decoded = DecodeMessage(frame);
    sink += frame.size() + (decoded.ok() ? 1 : 0);
    // Back to the pool the encoder draws from, as the runtime does after
    // a send: a dropped frame would make every encode grow a fresh buffer.
    FramePool().Release(std::move(frame));
  }
  const double elapsed = Now() - t0;
  const AllocSnapshot after = SnapAllocs();

  const double allocs_per_rt =
      static_cast<double>(after.calls - before.calls) /
      static_cast<double>(iters);
  const double rt_per_sec = static_cast<double>(iters) / elapsed;

  Row("%-26s %12.1f", "codec allocs/round-trip", allocs_per_rt);
  Row("%-26s %12.0f", "codec round-trips/sec", rt_per_sec);
  Row("%-26s %12llu", "(sink)", static_cast<unsigned long long>(sink % 1000));

  report.Metric("codec.allocs_per_roundtrip", allocs_per_rt, "allocs");
  report.Metric("codec.roundtrips_per_sec", rt_per_sec, "rt/s");
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report("hotpath", ParseBenchArgs(argc, argv));
  const std::uint64_t ops = report.smoke() ? 100 : 2000;
  const std::uint64_t codec_iters = report.smoke() ? 20'000 : 500'000;
  const std::uint64_t sim_events = report.smoke() ? 200'000 : 2'000'000;

  Header("E10 (hot path)",
         "allocation count + frame throughput on the E2 workload shape "
         "(n=6, f=1, clean run, sequential write+read pairs)");
  RunOps(report, ops);
  RunSimEvents(report, sim_events);
  RunCodec(report, codec_iters);
  return report.Flush() ? 0 : 1;
}
