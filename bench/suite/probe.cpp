#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "net/message.hpp"

namespace sbft::suite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRepeats = 9;

/// Median over kRepeats of the mean ns per call of `body` over `calls`
/// calls. `body` returns a value folded into a sink so the work stays.
template <typename Body>
double MedianNsPerCall(int calls, Body body) {
  static volatile std::uint64_t sink = 0;
  std::vector<double> means;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t fold = 0;
    const auto start = Clock::now();
    for (int i = 0; i < calls; ++i) fold += body(i);
    const std::chrono::duration<double, std::nano> elapsed =
        Clock::now() - start;
    sink = sink + fold;
    means.push_back(elapsed.count() / calls);
  }
  std::nth_element(means.begin(), means.begin() + kRepeats / 2, means.end());
  return means[kRepeats / 2];
}

}  // namespace

ProbeTimes RunProbes() {
  const ProtocolConfig config = ProtocolConfig::ForServers(16);
  const LabelingSystem labels(config.k);
  Rng rng(20150001);
  const auto random_ts = [&] {
    return Timestamp{RandomValidLabel(rng, labels.params()),
                     static_cast<ClientId>(rng.NextBelow(config.n + 1))};
  };

  // 64 READ replies as a server sends them at n = 16: a current value
  // and a full old_vals window. Owned storage outlives the views.
  constexpr std::size_t kBatch = 64;
  std::vector<Value> values;
  for (std::size_t i = 0; i <= config.history_window; ++i) {
    const std::string text = "k" + std::to_string(100 + i) + "#" +
                             std::to_string(rng.NextBelow(1000));
    values.emplace_back(text.begin(), text.end());
  }
  std::vector<ReplyMsg> replies(kBatch);
  for (std::size_t r = 0; r < kBatch; ++r) {
    replies[r].label = static_cast<OpLabel>(r);
    replies[r].value = values[0];
    replies[r].ts = random_ts();
    for (std::size_t h = 1; h <= config.history_window; ++h) {
      replies[r].old_vals.push_back(WireVersioned{values[h], random_ts()});
    }
  }
  const auto encode = [&] {
    std::vector<Bytes> inner;
    inner.reserve(kBatch);
    MuxBatchMsg batch;
    for (std::size_t r = 0; r < kBatch; ++r) {
      inner.push_back(EncodeMessage(Message(replies[r])));
      batch.items.push_back(MuxItem{r + 1, inner.back()});
    }
    return EncodeMessage(Message(std::move(batch)));
  };
  const Bytes frame = encode();

  ProbeTimes times;
  times.encode_ns = MedianNsPerCall(200, [&](int) { return encode().size(); });
  times.decode_ns = MedianNsPerCall(200, [&](int) {
    std::uint64_t decoded = 0;
    const Result<Message> outer = DecodeMessage(frame);
    for (const MuxItem& item : std::get<MuxBatchMsg>(outer.value()).items) {
      decoded += DecodeMessage(item.inner).ok() ? 1 : 0;
    }
    return decoded;
  });

  std::vector<Label> existing;
  for (std::uint32_t i = 0; i < config.k; ++i) {
    existing.push_back(RandomValidLabel(rng, labels.params()));
  }
  times.next_ns = MedianNsPerCall(2000, [&](int) {
    return labels.Next(existing, config.f).sting;
  });
  std::vector<Label> garbage;
  for (int i = 0; i < 256; ++i) {
    garbage.push_back(RandomGarbageLabel(rng, labels.params()));
  }
  times.sanitize_ns = MedianNsPerCall(2000, [&](int i) {
    return labels.Sanitize(garbage[static_cast<std::size_t>(i) % 256]).sting;
  });
  return times;
}

}  // namespace sbft::suite
