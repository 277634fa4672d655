// E4: bounded labels (the paper's second headline claim). Reports the
// label-space parameters versus k, the bytes a label takes on the wire
// against its information floor log2|L| / 8, contrasts that with
// unbounded timestamps over long executions, verifies wrap-around
// soundness (regular reads after far more writes than the label domain
// holds), and micro-benchmarks next()/Precedes with google-benchmark.
// Exits non-zero if a label on the measured chains exceeds
// LabelWireSize() or does not round-trip through the codec.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/deployment.hpp"
#include "common/serialize.hpp"
#include "labels/labeling_system.hpp"

using namespace sbft;
using namespace sbft::bench;

namespace {

// Bytes of a label on the wire, or 0 if it does not decode back to
// itself.
std::size_t EncodedSize(const Label& label) {
  BufWriter w;
  label.Encode(w);
  const Bytes wire = w.Take();
  BufReader r(wire);
  const bool round_trips = Label::Decode(r) == label && r.AtEndOk();
  return round_trips ? wire.size() : 0;
}

// E4d: mean encoded bytes over a solo writer's next() chain. Returns
// false if a label exceeds LabelWireSize() or fails to round-trip.
bool BytesPerLabel(JsonReport& report) {
  Header("E4d", "bytes per label on the wire: a 10^4-label next() chain "
                "vs the information floor log2|L|/8 and the old fixed "
                "u32 layout 8 + 4k");
  Row("%-5s %-10s %-10s %-10s %-12s %-10s", "k", "mean", "max", "floor",
      "u32 layout", "bound");
  bool ok = true;
  for (std::uint32_t k : {6u, 11u, 16u, 31u}) {
    LabelingSystem system(k);
    constexpr int kChain = 10'000;
    Label label = system.Initial();
    double total = 0;
    std::size_t largest = 0;
    for (int i = 0; i < kChain; ++i) {
      label = system.Next(std::vector<Label>{label});
      const std::size_t size = EncodedSize(label);
      if (size == 0 || size > system.LabelWireSize()) {
        Row("k=%u: label %s takes %zu bytes (0: no round trip), bound %zu",
            k, label.ToString().c_str(), size, system.LabelWireSize());
        ok = false;
      }
      total += static_cast<double>(size);
      largest = std::max(largest, size);
    }
    const double mean = total / kChain;
    const double floor = std::log2(system.LabelSpaceSize()) / 8;
    const double u32_layout = 8.0 + 4.0 * k;
    Row("%-5u %-10.1f %-10zu %-10.1f %-12.0f %-10zu", k, mean, largest, floor,
        u32_layout, system.LabelWireSize());
    const std::string key = "k" + std::to_string(k);
    report.Metric(key + ".mean_bytes_per_label", mean, "bytes");
    report.Metric(key + ".floor_bytes_per_label", floor, "bytes");
  }
  Row("%s", "\nexpected shape: mean a few bytes above the floor (sorted "
            "antistings sent as delta varints, ~1 byte each), far below "
            "8 + 4k; every label within the bound.");
  return ok;
}

void Tables(JsonReport& report) {
  Header("E4a", "bounded label space vs k (k >= n; a label's wire size is "
                "bounded per k regardless of execution length)");
  Row("%-5s %-8s %-14s %-12s %-16s", "k", "domain", "|L| (labels)",
      "max bytes", "sting cycle (writes)");
  for (std::uint32_t k : {6u, 11u, 16u, 31u, 64u}) {
    LabelingSystem system(k);
    // Measure the solo-writer sting rotation period empirically.
    Label current = system.Initial();
    const std::uint32_t first_sting_after = [&] {
      Label l = system.Next(std::vector<Label>{current});
      return l.sting;
    }();
    std::uint32_t period = 0;
    Label walker = current;
    for (std::uint32_t i = 0; i < 10 * system.params().Domain(); ++i) {
      walker = system.Next(std::vector<Label>{walker});
      ++period;
      if (i > 0 && walker.sting == first_sting_after) break;
    }
    Row("%-5u %-8u %-14.3g %-12zu %-16u", k, system.params().Domain(),
        system.LabelSpaceSize(), system.LabelWireSize(), period);
    report.Metric("k" + std::to_string(k) + ".bytes_per_label",
                  static_cast<double>(system.LabelWireSize()), "bytes");
  }

  Header("E4b", "timestamp bytes on the wire after N writes: bounded labels "
                "(at most) vs unbounded counters");
  Row("%-12s %-22s %-22s", "writes", "bounded (k=11)", "unbounded u64");
  LabelingSystem system(11);
  for (double writes : {1e3, 1e6, 1e9, 1e12}) {
    // Unbounded counters conceptually need ~log2(N) bits; any fixed-width
    // implementation (8 bytes here) silently becomes saturating - the
    // failure E5 demonstrates. Bounded labels never grow.
    Row("%-12.0e %-22zu %-22s", writes, system.LabelWireSize(),
        "8 (saturates: unsound)");
  }

  Header("E4c", "wrap-around soundness: 600 writes (>> sting cycle) then "
                "reads, n=6");
  Deployment::Options options;
  options.config = ProtocolConfig::ForServers(6);
  options.seed = 99;
  Deployment deployment(std::move(options));
  int write_ok = 0;
  for (int i = 0; i < 600; ++i) {
    auto write = deployment.Write(
        0, Value{static_cast<std::uint8_t>(i & 0xFF),
                 static_cast<std::uint8_t>((i >> 8) & 0xFF)});
    write_ok += write.outcome.status == OpStatus::kOk ? 1 : 0;
  }
  int read_ok = 0;
  const Value last{static_cast<std::uint8_t>(599 & 0xFF),
                   static_cast<std::uint8_t>(599 >> 8)};
  for (int i = 0; i < 10; ++i) {
    auto read = deployment.Read(0);
    read_ok += (read.outcome.status == OpStatus::kOk &&
                read.outcome.value == last)
                   ? 1
                   : 0;
  }
  Row("writes ok: %d/600, reads returning the last write: %d/10", write_ok,
      read_ok);
  report.Metric("wraparound.writes_ok", write_ok, "writes");
  report.Metric("wraparound.reads_ok", read_ok, "reads");
  Row("%s", "\nexpected shape: label size bounded in execution length; "
            "wrap-around never breaks regularity (labels are reused "
            "safely).");
}

void BM_Next(benchmark::State& state) {
  LabelingSystem system(static_cast<std::uint32_t>(state.range(0)));
  Rng rng(7);
  std::vector<Label> inputs;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    inputs.push_back(RandomValidLabel(rng, system.params()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Next(inputs));
  }
}
BENCHMARK(BM_Next)->Arg(6)->Arg(11)->Arg(31);

void BM_Precedes(benchmark::State& state) {
  LabelingSystem system(static_cast<std::uint32_t>(state.range(0)));
  Rng rng(9);
  Label a = RandomValidLabel(rng, system.params());
  Label b = RandomValidLabel(rng, system.params());
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.Precedes(a, b));
  }
}
BENCHMARK(BM_Precedes)->Arg(6)->Arg(31);

}  // namespace

int main(int argc, char** argv) {
  JsonReport report("labels", ParseBenchArgs(argc, argv));
  Tables(report);
  const bool labels_ok = BytesPerLabel(report);
  // google-benchmark rejects flags it does not know; strip ours before
  // handing the argument vector over.
  std::vector<char*> bm_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
    } else if (std::strcmp(argv[i], "--smoke") != 0) {
      bm_args.push_back(argv[i]);
    }
  }
  int bm_argc = static_cast<int>(bm_args.size());
  ::benchmark::Initialize(&bm_argc, bm_args.data());
  if (!report.smoke()) ::benchmark::RunSpecifiedBenchmarks();
  return report.Flush() && labels_ok ? 0 : 1;
}
