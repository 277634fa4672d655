// MWMR timestamps: the §IV-D extension associates each written value
// with a (label, writer id) pair so that concurrent or consecutive
// writes by different writers are totally ordered (Lemma 8).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "labels/labeling_system.hpp"

namespace sbft {

using ClientId = std::uint32_t;

struct Timestamp {
  Label label;
  ClientId writer_id = 0;

  friend bool operator==(const Timestamp&, const Timestamp&) = default;

  [[nodiscard]] std::strong_ordering CompareRepr(const Timestamp& other) const {
    if (auto c = label.CompareRepr(other.label); c != 0) return c;
    return writer_id <=> other.writer_id;
  }

  [[nodiscard]] std::string ToString() const;

  // Inline for the same reason as Label::Encode/Decode: one timestamp
  // per wire value, deep inside the hottest codec loops.
  void Encode(BufWriter& w) const {
    label.Encode(w);
    w.Put<ClientId>(writer_id);
  }
  static Timestamp Decode(BufReader& r) {
    Timestamp ts;
    ts.label = Label::Decode(r);
    ts.writer_id = r.Get<ClientId>();
    return ts;
  }
  /// Advance past one encoded timestamp, failing the reader on exactly
  /// the bytes Decode rejects: the bounds walk for a reader that keeps
  /// the bytes encoded (a server's reply prefix, a client's lazily
  /// decoded REPLY history).
  static void Skip(BufReader& r) {
    Label::Skip(r);
    (void)r.Get<ClientId>();
  }
};

/// Precedence on timestamps: label order when the labels are comparable;
/// otherwise the writer identifier breaks the tie (Lemma 8: "the use of
/// identifiers and the bounded labeling scheme ensures that concurrent
/// write operations can be totally ordered"). Like the label relation
/// itself this is antisymmetric but not transitive.
[[nodiscard]] bool Precedes(const Timestamp& a, const Timestamp& b,
                            const LabelParams& params);

/// Deterministic pairwise selection order used when one of several
/// candidates must be chosen (e.g. two >= 2f+1 nodes in a union WTsG):
/// precedence first, then writer id, then representation order. Total
/// and deterministic; not transitive (inherited from the label order) —
/// callers take a max by a fixed left-to-right scan, which is
/// deterministic for a deterministic input order.
[[nodiscard]] bool SelectionLess(const Timestamp& a, const Timestamp& b,
                                 const LabelParams& params);

}  // namespace sbft
