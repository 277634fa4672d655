// Fixture: reporting-only clock use (the src/fuzz/campaign.cpp
// pattern). The clock feeds elapsed/budget arithmetic, count() and a
// returned comparison — never a call that could seed scenario state.
// Expected: clean.

#include <chrono>
#include <cstdint>

namespace sbft {

class Campaign {
 public:
  bool BudgetExpired(std::uint64_t budget_seconds) {
    auto started = std::chrono::steady_clock::now();
    RunOne();
    auto elapsed = std::chrono::steady_clock::now() - started;
    auto elapsed_s =
        std::chrono::duration_cast<std::chrono::seconds>(elapsed);
    return static_cast<std::uint64_t>(elapsed_s.count()) >= budget_seconds;
  }

 private:
  void RunOne();
};

}  // namespace sbft
