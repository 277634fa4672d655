#include "labels/labeling_system.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace sbft {

LabelingSystem::LabelingSystem(std::uint32_t k) : params_{k} {
  SBFT_ASSERT(k >= 2);
  // Domain() = 4(k^2 + k) + 1 <= 65,536: stings and antistings are u16.
  SBFT_ASSERT(k <= 127);
}

double LabelingSystem::LabelSpaceSize() const {
  // m choices of sting times C(m-1, k) antisting sets.
  const double m = params_.Domain();
  double binom = 1.0;
  for (std::uint32_t i = 0; i < params_.k; ++i) {
    binom *= (m - 1.0 - i) / (i + 1.0);
  }
  return m * binom;
}

namespace {

std::size_t VarintSize(std::uint32_t value) {
  std::uint8_t bytes[kMaxVarintBytes];
  return static_cast<std::size_t>(StoreVarint(bytes, value) - bytes);
}

}  // namespace

std::size_t LabelingSystem::LabelWireSize() const {
  // u16 sting, varint count k, and k deltas, none of which exceeds
  // Domain() (the first is a_0 + 1 <= Domain(); a later one is smaller).
  return 2 + VarintSize(params_.k) +
         params_.k * VarintSize(params_.Domain());
}

Label LabelingSystem::Next(std::span<const Label> existing,
                           std::size_t distrusted) const {
  SBFT_ASSERT(existing.size() <= params_.k);
  const std::uint32_t m = params_.Domain();

  // Sanitize inputs: after a transient fault servers may report garbage;
  // next() must still be defined (and dominate the sanitized forms).
  std::vector<Label> inputs;
  inputs.reserve(existing.size());
  for (const Label& label : existing) inputs.push_back(Sanitize(label));

  // The new antisting set starts as the set of input stings, so that
  // every input's sting lands in it (first half of l < next).
  std::vector<std::uint32_t> antistings;
  antistings.reserve(params_.k);
  for (const Label& label : inputs) antistings.push_back(label.sting);
  std::sort(antistings.begin(), antistings.end());
  antistings.erase(std::unique(antistings.begin(), antistings.end()),
                   antistings.end());

  // Forbidden stings: every input antisting (second half of l < next:
  // the new sting must avoid every A_i) plus the new antisting set
  // (structural invariant sting not-in own antistings).
  std::vector<std::uint32_t> forbidden = antistings;
  for (const Label& label : inputs) {
    forbidden.insert(forbidden.end(), label.antistings.begin(),
                     label.antistings.end());
  }
  std::sort(forbidden.begin(), forbidden.end());
  forbidden.erase(std::unique(forbidden.begin(), forbidden.end()),
                  forbidden.end());

  // |forbidden| <= k*k + k < m, so a sting exists. The scan starts just
  // above the largest input sting and wraps, rather than always taking
  // the smallest free element: a greedy smallest-first choice makes the
  // label sequence of a solo writer cycle with period ~3, so vertices of
  // writes still inside the old_vals history window would re-alias
  // fresh labels and create spurious precedence cycles in the WTsG. The
  // rotating choice stretches the cycle to ~m = k^2+k+1 labels, far
  // beyond any history window (the paper's Assumption 2 quiescence
  // discussion makes the same "labels wrap slowly relative to memory"
  // assumption).
  std::vector<std::uint32_t> stings_sorted;
  stings_sorted.reserve(inputs.size());
  for (const Label& label : inputs) stings_sorted.push_back(label.sting);
  std::sort(stings_sorted.begin(), stings_sorted.end());
  // Drop the `distrusted` largest stings (possible Byzantine lies) from
  // the rotation heuristic.
  const std::size_t drop = std::min(distrusted, stings_sorted.size());
  stings_sorted.resize(stings_sorted.size() - drop);
  std::uint32_t start =
      stings_sorted.empty() ? 0 : stings_sorted.back() + 1;
  std::uint32_t sting = 0;
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t candidate = (start + i) % m;
    if (!std::binary_search(forbidden.begin(), forbidden.end(), candidate)) {
      sting = candidate;
      break;
    }
  }

  // Pad the antisting set to exactly k elements (!= sting), scanning
  // DOWNWARD from just below the fresh sting. The padded elements then
  // cover the recently-used sting region (strengthening domination of
  // recent labels) and stay clear of the region the rotation is moving
  // into — padding with the smallest elements would park antistings
  // exactly where the rotation wraps, letting week-old labels spuriously
  // dominate fresh post-wrap ones.
  std::uint32_t offset = 2;
  while (antistings.size() < params_.k) {
    SBFT_ASSERT(offset < m + 2);
    const std::uint32_t candidate = (sting + m - offset) % m;
    ++offset;
    const bool used = candidate == sting ||
                      std::binary_search(antistings.begin(), antistings.end(),
                                         candidate);
    if (!used) {
      antistings.insert(
          std::upper_bound(antistings.begin(), antistings.end(), candidate),
          candidate);
    }
  }

  Label next;
  next.sting = static_cast<std::uint16_t>(sting);
  next.antistings.assign(antistings.begin(), antistings.end());
  SBFT_ASSERT(IsValid(next));
  return next;
}

}  // namespace sbft
