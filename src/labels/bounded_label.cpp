#include "labels/bounded_label.hpp"

#include <algorithm>
#include <sstream>

namespace sbft {

std::strong_ordering Label::CompareRepr(const Label& other) const {
  if (auto c = sting <=> other.sting; c != 0) return c;
  return antistings <=> other.antistings;
}

Label Label::Canonical() const {
  Label canonical = *this;
  AntistingSet& set = canonical.antistings;
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return canonical;
}

std::string Label::ToString() const {
  std::ostringstream out;
  out << "(" << sting << "|{";
  for (std::size_t i = 0; i < antistings.size(); ++i) {
    if (i != 0) out << ",";
    out << antistings[i];
  }
  out << "})";
  return out.str();
}

bool IsValid(const Label& label, const LabelParams& params) {
  const std::uint32_t m = params.Domain();
  if (label.sting >= m) return false;
  if (label.antistings.size() != params.k) return false;
  if (!std::is_sorted(label.antistings.begin(), label.antistings.end()))
    return false;
  for (std::size_t i = 0; i < label.antistings.size(); ++i) {
    if (label.antistings[i] >= m) return false;
    if (i > 0 && label.antistings[i] == label.antistings[i - 1]) return false;
    if (label.antistings[i] == label.sting) return false;
  }
  return true;
}

Label Sanitize(Label label, const LabelParams& params) {
  // Steady state: every label on the wire is already valid, and the
  // full normalization below (mod, sort, dedup, pad) on a valid label
  // is the identity. One validation scan replaces it — Sanitize is the
  // hottest label operation (every timestamp of every quorum reply
  // passes through it), and the slow path only runs on fault-injected
  // garbage.
  if (IsValid(label, params)) return label;
  const std::uint32_t m = params.Domain();
  label.sting = static_cast<std::uint16_t>(label.sting % m);
  for (auto& a : label.antistings) a = static_cast<std::uint16_t>(a % m);
  std::sort(label.antistings.begin(), label.antistings.end());
  label.antistings.erase(
      std::unique(label.antistings.begin(), label.antistings.end()),
      label.antistings.end());
  label.antistings.erase(std::remove(label.antistings.begin(),
                                     label.antistings.end(), label.sting),
                         label.antistings.end());
  if (label.antistings.size() > params.k) {
    label.antistings.resize(params.k);
  }
  // Pad with the smallest unused domain elements. Domain() > k+1 ensures
  // enough candidates even after skipping the sting.
  std::uint32_t candidate = 0;
  while (label.antistings.size() < params.k) {
    const bool used =
        candidate == label.sting ||
        std::binary_search(label.antistings.begin(), label.antistings.end(),
                           candidate);
    if (!used) {
      label.antistings.insert(
          std::upper_bound(label.antistings.begin(), label.antistings.end(),
                           candidate),
          static_cast<std::uint16_t>(candidate));
    }
    ++candidate;
  }
  return label;
}

bool Precedes(const Label& a, const Label& b, const LabelParams& params) {
  if (!IsValid(a, params) || !IsValid(b, params)) {
    // Garbage never precedes nor is preceded: an invalid label is outside
    // the labeling system. Callers that must make progress sanitize first.
    return false;
  }
  const bool a_sting_in_b = std::binary_search(b.antistings.begin(),
                                               b.antistings.end(), a.sting);
  const bool b_sting_in_a = std::binary_search(a.antistings.begin(),
                                               a.antistings.end(), b.sting);
  return a_sting_in_b && !b_sting_in_a;
}

Label InitialLabel(const LabelParams& params) {
  Label label;
  label.sting = static_cast<std::uint16_t>(params.k);  // antistings: 0..k-1
  label.antistings.resize(params.k);
  for (std::uint32_t i = 0; i < params.k; ++i) {
    label.antistings[i] = static_cast<std::uint16_t>(i);
  }
  return label;
}

Label RandomValidLabel(Rng& rng, const LabelParams& params) {
  const std::uint32_t m = params.Domain();
  // Sample a k+1 subset by rejection (domain is small: m = k^2+k+1).
  std::vector<std::uint16_t> picks;
  while (picks.size() < params.k + 1) {
    const auto candidate = static_cast<std::uint16_t>(rng.NextBelow(m));
    if (std::find(picks.begin(), picks.end(), candidate) == picks.end()) {
      picks.push_back(candidate);
    }
  }
  Label label;
  label.sting = picks.back();
  picks.pop_back();
  std::sort(picks.begin(), picks.end());
  label.antistings.assign(picks.begin(), picks.end());
  return label;
}

Label RandomGarbageLabel(Rng& rng, const LabelParams& params) {
  Label label;
  label.sting = static_cast<std::uint16_t>(rng());
  const auto count = rng.NextBelow(2 * params.k + 2);
  label.antistings.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    label.antistings.push_back(static_cast<std::uint16_t>(rng()));
  }
  return label;
}

}  // namespace sbft
