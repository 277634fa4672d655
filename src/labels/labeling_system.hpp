// The k-stabilizing bounded labeling system (L, <, next()) of
// Definition 2, packaged as a value-semantic object carrying its
// parameters. See bounded_label.hpp for the construction.
#pragma once

#include <cstddef>
#include <span>

#include "labels/bounded_label.hpp"

namespace sbft {

class LabelingSystem {
 public:
  /// Precondition: 2 <= k (Definition 2 requires it) and k <= 127
  /// (labels are u16; see AntistingSet).
  explicit LabelingSystem(std::uint32_t k);

  [[nodiscard]] const LabelParams& params() const { return params_; }

  /// Number of distinct labels |L| = m * C(m-1, k): finite by
  /// construction. Returned as double because it overflows 64 bits for
  /// large k; used only for reporting (bench E4).
  [[nodiscard]] double LabelSpaceSize() const;

  /// Upper bound on the serialized size of a valid label, in bytes. A
  /// label's size varies with the gaps between its antistings
  /// (Label::Encode); the bound takes each gap at Domain(), which none
  /// exceeds.
  [[nodiscard]] std::size_t LabelWireSize() const;

  /// The precedence relation. Invalid (corrupted) labels are
  /// incomparable to everything.
  [[nodiscard]] bool Precedes(const Label& a, const Label& b) const {
    return sbft::Precedes(a, b, params_);
  }

  /// next(L'): a label that dominates every input (Definition 2).
  /// Inputs are sanitized first, so this is total on arbitrary memory —
  /// the self-stabilization requirement. Precondition: at most k inputs
  /// (the protocol guarantees this by choosing k >= n).
  ///
  /// `distrusted` is a liveness-of-labels knob, not a correctness one:
  /// the sting scan starts just above the largest input sting after
  /// ignoring the `distrusted` largest (the register client passes f).
  /// Without it, a single Byzantine server reporting a near-maximal
  /// sting every round fast-forwards the label rotation, forcing full
  /// label reuse within the servers' history window — exactly the
  /// wrap-around ambiguity the paper's Assumption 2 discussion warns
  /// about. Domination of ALL inputs is enforced by the forbidden-set
  /// check regardless of where the scan starts.
  [[nodiscard]] Label Next(std::span<const Label> existing,
                           std::size_t distrusted = 0) const;

  [[nodiscard]] Label Initial() const { return InitialLabel(params_); }
  [[nodiscard]] Label Sanitize(Label label) const {
    return sbft::Sanitize(std::move(label), params_);
  }
  [[nodiscard]] bool IsValid(const Label& label) const {
    return sbft::IsValid(label, params_);
  }

 private:
  LabelParams params_;
};

}  // namespace sbft
