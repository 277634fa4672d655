// Fixture: a local std::vector SHADOWS an unordered member of the same
// name, and the range-for iterates the local. Name matching alone
// false-positives here; the scope-aware walk must resolve `events_` to
// the innermost declaration and stay quiet. Expected: clean.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace sbft {

class Tracer {
 public:
  std::uint64_t Checksum() {
    std::vector<std::uint64_t> events_ = SortedEvents();
    std::uint64_t sum = 0;
    for (const auto& value : events_) {
      sum = sum * 31 + value;
    }
    return sum;
  }

 private:
  std::vector<std::uint64_t> SortedEvents();

  std::unordered_map<std::uint64_t, std::uint64_t> events_;
};

}  // namespace sbft
