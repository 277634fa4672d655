// Fixture: clock value seeding state in the deterministic zone. A
// token match cannot tell this apart from harmless elapsed-time
// reporting; the flow-aware check must: the steady_clock read flows
// into Seed() (state) and into a member (state), not into
// count()/comparison (reporting). Expected: exactly one check trips —
// wall-clock.

#include <chrono>
#include <cstdint>

namespace sbft {

class Rng {
 public:
  void Seed(std::uint64_t seed);
};

class Campaign {
 public:
  void Start() {
    auto started = std::chrono::steady_clock::now();
    rng_.Seed(started.time_since_epoch().count());
    epoch_ = started;
  }

 private:
  Rng rng_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace sbft
