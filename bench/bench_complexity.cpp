// E3: message and latency complexity versus system size. For n in
// {6, 11, 16, 21, 26, 31} (f = (n-1)/5), measures frames and bytes per
// operation and simulated round-trip latency for writes and reads.
// Prediction: Theta(n) frames per op (write ~6n: flush + get_ts +
// write, each a round trip to all servers; read ~5n) and constant round
// counts. Bytes grow faster than frames: every READ reply carries
// history_window + 1 = n + 1 labels of k = n antistings each, so read
// bytes grow as n^2 times the bytes per antisting (about 1: labels go
// out as deltas between sorted antistings).
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/deployment.hpp"

using namespace sbft;
using namespace sbft::bench;

int main(int argc, char** argv) {
  JsonReport report("complexity", ParseBenchArgs(argc, argv));
  Header("E3", "message complexity and latency vs n (delay U[1,10], "
               "20 ops each, all-correct servers)");
  Row("%-4s %-4s | %-12s %-12s | %-12s %-12s | %-10s %-10s | %-11s %-11s",
      "n", "f", "write frames", "frames/n", "read frames", "frames/n",
      "write ticks", "read ticks", "write bytes", "read bytes");

  for (std::uint32_t n : {6u, 11u, 16u, 21u, 26u, 31u}) {
    Deployment::Options options;
    options.config = ProtocolConfig::ForServers(n);
    options.seed = n;
    Deployment deployment(std::move(options));

    std::vector<double> write_frames, read_frames, write_ticks, read_ticks;
    std::vector<double> write_bytes, read_bytes;
    for (int i = 0; i < 20; ++i) {
      auto write = deployment.Write(0, Value{static_cast<std::uint8_t>(i)});
      if (write.completed) {
        write_frames.push_back(static_cast<double>(write.frames_sent));
        write_bytes.push_back(static_cast<double>(write.bytes_sent));
        write_ticks.push_back(
            static_cast<double>(write.returned_at - write.invoked_at));
      }
      auto read = deployment.Read(0);
      if (read.completed) {
        read_frames.push_back(static_cast<double>(read.frames_sent));
        read_bytes.push_back(static_cast<double>(read.bytes_sent));
        read_ticks.push_back(
            static_cast<double>(read.returned_at - read.invoked_at));
      }
    }
    const double wf = Mean(write_frames);
    const double rf = Mean(read_frames);
    Row("%-4u %-4u | %-12.1f %-12.2f | %-12.1f %-12.2f | %-10.1f %-10.1f | "
        "%-11.0f %-11.0f",
        n, deployment.config().f, wf, wf / n, rf, rf / n, Mean(write_ticks),
        Mean(read_ticks), Mean(write_bytes), Mean(read_bytes));
    const std::string key = "n" + std::to_string(n);
    report.Metric(key + ".write_frames_per_n", wf / n, "frames");
    report.Metric(key + ".read_frames_per_n", rf / n, "frames");
    report.Metric(key + ".write_ticks", Mean(write_ticks), "ticks");
    report.Metric(key + ".read_ticks", Mean(read_ticks), "ticks");
    report.Metric(key + ".write_bytes", Mean(write_bytes), "bytes");
    report.Metric(key + ".read_bytes", Mean(read_bytes), "bytes");
  }
  Row("%s", "\nexpected shape: frames/op grow linearly in n (constant "
            "frames/n per op type); latency stays ~constant (fixed number "
            "of message rounds, independent of n); read bytes grow ~n^2 "
            "(n replies of n + 1 labels of n antistings).");
  return report.Flush() ? 0 : 1;
}
