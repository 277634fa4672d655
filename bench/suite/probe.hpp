// Layer probes for traced runs: the codec and the labeling system timed
// in isolation on fixed inputs, so a change to either shows up even
// when the end-to-end numbers cannot resolve it.
#pragma once

namespace sbft::suite {

struct ProbeTimes {
  /// EncodeMessage / DecodeMessage of one MuxBatch carrying 64 READ
  /// replies at n = 16 (inner replies included), ns per batch.
  double encode_ns = 0;
  double decode_ns = 0;
  /// LabelingSystem(k = 16): Next over 16 labels, Sanitize of one
  /// garbage label; ns per call.
  double next_ns = 0;
  double sanitize_ns = 0;
};

[[nodiscard]] ProbeTimes RunProbes();

}  // namespace sbft::suite
