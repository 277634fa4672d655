// Run the register on real OS threads and TCP sockets (loopback): six
// server processes-worth of automata, one Byzantine, and a client doing
// a small workload with wall-clock latency measurements.
//
//   $ ./build/examples/tcp_cluster
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/sharded_cluster.hpp"

using namespace sbft;

int main() {
  ShardedCluster::Options options;
  options.group.config = ProtocolConfig::ForServers(6);
  options.group.byzantine[1] = ByzantineStrategy::kStaleReplay;
  ShardedCluster cluster(options);
  cluster.Start();
  std::printf("cluster up: 6 register servers + 1 client over TCP "
              "loopback (server 1 is Byzantine)\n");

  using Clock = std::chrono::steady_clock;
  std::vector<double> write_us;
  std::vector<double> read_us;
  const int kOps = 50;
  int ok = 0;
  for (int i = 0; i < kOps; ++i) {
    const std::string text = "value-" + std::to_string(i);
    const Value value(text.begin(), text.end());

    auto t0 = Clock::now();
    auto write = cluster.Write(0, value);
    auto t1 = Clock::now();
    auto read = cluster.Read(0);
    auto t2 = Clock::now();

    write_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    read_us.push_back(
        std::chrono::duration<double, std::micro>(t2 - t1).count());
    if (write.status == OpStatus::kOk && read.status == OpStatus::kOk &&
        read.value == value) {
      ++ok;
    }
  }
  cluster.Stop();

  auto percentile = [](std::vector<double> values, double p) {
    std::sort(values.begin(), values.end());
    return values[static_cast<std::size_t>(p * (values.size() - 1))];
  };
  std::printf("%d/%d write+read round trips correct\n", ok, kOps);
  std::printf("write latency: p50=%.0fus p99=%.0fus\n",
              percentile(write_us, 0.5), percentile(write_us, 0.99));
  std::printf("read  latency: p50=%.0fus p99=%.0fus\n",
              percentile(read_us, 0.5), percentile(read_us, 0.99));
  return ok == kOps ? 0 : 1;
}
