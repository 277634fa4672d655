// Bounded labels for the k-stabilizing bounded labeling system of
// Alon, Attiya, Dolev, Dubois, Potop-Butucaru, Tixeuil (DISC 2010),
// which the paper (Definition 2) uses to timestamp write operations.
//
// Construction (the paper cites [18] without repeating it; this is the
// standard sting/antisting construction):
//   * fix k >= 2 and a finite domain D = {0, ..., m-1} with m = k^2+k+1;
//   * a label is a pair (sting s in D, antistings A subset of D, |A| = k,
//     s not in A);
//   * order:  l_i < l_j  iff  s_i in A_j  and  s_j not in A_i;
//   * next(L') for |L'| <= k: A_new := {stings of L'} padded to size k,
//     s_new := smallest domain element outside (union of antistings of
//     L') and outside A_new. At most k*k + k elements are excluded, so a
//     sting always exists, and by construction every l in L' satisfies
//     l < next(L').
//
// The relation < is antisymmetric but NOT transitive — that is the price
// of boundedness, and exactly why the protocol reasons with Weighted
// Timestamp Graphs instead of a single maximum.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/small_vector.hpp"

namespace sbft {

/// Parameters of the labeling system: k is the maximum cardinality of a
/// label set that next() must dominate (Definition 2 of the paper).
struct LabelParams {
  std::uint32_t k = 2;

  /// Size of the label domain D. Correctness of next() needs only
  /// k^2 + k + 1 (k^2 excludes every antisting of k input labels, +k
  /// keeps the fresh sting outside its own antisting set, +1 guarantees
  /// an element remains). We provision 4x that: the slack stretches the
  /// sting-rotation period of next() (see labeling_system.cpp) so that
  /// labels of writes still inside the servers' old_vals window never
  /// collide with freshly issued ones. On the wire the slack costs
  /// little: antistings go out as deltas between sorted values
  /// (Label::Encode), and a wider domain only widens the gaps.
  [[nodiscard]] std::uint32_t Domain() const {
    return 4 * (k * k + k) + 1;
  }

  friend bool operator==(const LabelParams&, const LabelParams&) = default;
};

/// One bounded label. Invariants (when valid for params p):
///   sting < p.Domain(); antistings sorted, distinct, all < p.Domain(),
///   exactly p.k of them, and sting is not among them.
/// A Label object may hold arbitrary garbage after a transient fault;
/// IsValid/Sanitize handle that case explicitly.
/// Domain() <= 65,536 (LabelingSystem asserts k <= 127), so every
/// domain element fits 16 bits. Antisting sets hold exactly k elements
/// (k = n; n <= 16 for every benchmark deployment), so inline storage
/// covers those labels and the heap fallback fires only for larger k
/// and fault-injected garbage.
using AntistingSet = SmallVector<std::uint16_t, 16>;

struct Label {
  std::uint16_t sting = 0;
  AntistingSet antistings;

  friend bool operator==(const Label&, const Label&) = default;

  /// Deterministic total order on representations. This is NOT the
  /// temporal precedence relation — it is used only for canonical
  /// tie-breaking and container keys.
  [[nodiscard]] std::strong_ordering CompareRepr(const Label& other) const;

  [[nodiscard]] std::string ToString() const;

  // Wire form: [u16 sting][varint count][delta_0 … delta_{count-1}] with
  // delta_i = a_i - a_{i-1}, a_{-1} = -1, over the antistings in strictly
  // ascending order. Every delta is positive, so sorted and distinct
  // hold by construction, and an antisting whose gap is below 128 costs
  // one byte instead of four (a k = 16 label averages 19.9 bytes on a
  // next() chain, 72 as u32s; EXPERIMENTS.md E4).
  //
  // Encode canonicalises: an antisting set that is not strictly
  // ascending (garbage after a transient fault) goes out sorted and
  // deduplicated. Sanitize ignores order and duplicates, so
  // Sanitize(Decode(Encode(x))) == Sanitize(x) for every x, and a valid
  // label round-trips exactly.
  //
  // Inline: labels are the most-serialized structure in the protocol
  // (one per timestamp, a REPLY carries history_window + 1 of them).
  void Encode(BufWriter& w) const {
    if (std::adjacent_find(antistings.begin(), antistings.end(),
                           std::greater_equal<>()) != antistings.end()) {
      Canonical().Encode(w);
      return;
    }
    const auto count = static_cast<std::uint32_t>(antistings.size());
    // A delta is at most 65,536: three varint bytes.
    w.PutVariable(2 + kMaxVarintBytes + 3 * std::size_t{count},
                  [this, count](std::uint8_t* out) {
                    *out++ = static_cast<std::uint8_t>(sting & 0xFF);
                    *out++ = static_cast<std::uint8_t>(sting >> 8);
                    out = StoreVarint(out, count);
                    std::uint32_t next = 0;  // a_{i-1} + 1
                    for (const std::uint16_t a : antistings) {
                      out = StoreVarint(out, a + 1u - next);
                      next = a + 1u;
                    }
                    return out;
                  });
  }
  /// Fails the reader (sticky failed()) on a zero delta, an antisting
  /// past 65,535, a count larger than the bytes left, and a truncated or
  /// overlong varint. Domain() is not checked here: that is IsValid's
  /// and Sanitize's job, as for any garbage label.
  static Label Decode(BufReader& r) {
    Label label;
    Read(r, &label);
    return label;
  }
  /// Advance past one encoded label: Decode's walk and checks, with
  /// nothing stored.
  static void Skip(BufReader& r) { Read(r, nullptr); }

 private:
  /// The sorted, deduplicated copy Encode puts on the wire.
  [[nodiscard]] Label Canonical() const;

  static void Read(BufReader& r, Label* out) {
    const auto sting = r.Get<std::uint16_t>();
    const std::uint32_t count = r.GetVarint();
    if (count > r.remaining()) {  // every delta takes a byte at least
      r.Fail();
      return;
    }
    if (out != nullptr) {
      out->sting = sting;
      out->antistings.resize(count);
    }
    std::uint32_t next = 0;  // a_{i-1} + 1
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t delta = r.GetVarint();
      if (delta == 0 || delta > 0x10000 - next) {
        r.Fail();
        return;
      }
      next += delta;
      if (out != nullptr) {
        out->antistings[i] = static_cast<std::uint16_t>(next - 1);
      }
    }
  }
};

/// True iff `label` satisfies every structural invariant for `params`.
[[nodiscard]] bool IsValid(const Label& label, const LabelParams& params);

/// Coerce arbitrary bytes into a valid label, deterministically.
/// Self-stabilization requires every code path to make progress from
/// arbitrary state, so garbage labels are normalized rather than
/// rejected: sting is reduced mod Domain(), antistings are reduced,
/// deduplicated and padded/truncated to exactly k elements != sting.
[[nodiscard]] Label Sanitize(Label label, const LabelParams& params);

/// The temporal precedence relation (Definition 2): a < b.
[[nodiscard]] bool Precedes(const Label& a, const Label& b,
                            const LabelParams& params);

/// A fixed valid label, used for clean bootstraps (a freshly started,
/// uncorrupted server). Any valid label works; this one is canonical.
[[nodiscard]] Label InitialLabel(const LabelParams& params);

/// A uniformly random *valid* label — models a corrupted-but-plausible
/// state. (For corrupted-and-implausible states the fault injector
/// writes raw garbage and relies on Sanitize at use sites.)
[[nodiscard]] Label RandomValidLabel(Rng& rng, const LabelParams& params);

/// A random, possibly structurally invalid label (arbitrary memory).
[[nodiscard]] Label RandomGarbageLabel(Rng& rng, const LabelParams& params);

}  // namespace sbft
