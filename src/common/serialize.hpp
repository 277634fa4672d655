// Bounds-checked binary serialization.
//
// Everything that crosses a channel in sbftreg goes through BufWriter /
// BufReader. The reader is hardened: transient faults may replace channel
// contents with arbitrary bytes (§II of the paper), so decoding garbage
// must fail cleanly (sticky error flag) instead of crashing or reading
// out of bounds. Fixed-width integers are little-endian; containers are
// length-prefixed with a sanity cap; varints carry the label codec's
// counts and deltas (labels/bounded_label.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace sbft {

/// Maximum element count accepted for any length-prefixed container.
/// Garbage frames routinely decode to absurd lengths; this cap bounds
/// allocation before the frame is rejected by higher-level validation.
constexpr std::uint32_t kMaxWireElements = 1u << 20;

/// A varint takes 7 bits per byte, low group first, with the high bit
/// set on every byte but the last; a 32-bit value takes at most 5.
constexpr std::size_t kMaxVarintBytes = 5;

/// Store `value` as a varint at `out`; returns one past its last byte.
inline std::uint8_t* StoreVarint(std::uint8_t* out, std::uint32_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

namespace detail {
// Unsigned carrier type for an integral or enum T, computed lazily so
// the non-enum branch never instantiates underlying_type.
template <typename T, bool = std::is_enum_v<T>>
struct WireCarrier {
  using type = std::make_unsigned_t<T>;
};
template <typename T>
struct WireCarrier<T, true> {
  using type = std::make_unsigned_t<std::underlying_type_t<T>>;
};
template <typename T>
using WireCarrierT = typename WireCarrier<T>::type;
}  // namespace detail

class BufWriter {
 public:
  BufWriter() = default;

  /// Write into a caller-supplied buffer — typically drawn from a
  /// BufferPool so repeated encodes reuse capacity. The buffer is
  /// cleared; Take() hands it back with the encoded frame.
  explicit BufWriter(Bytes reuse) : buf_(std::move(reuse)) { buf_.clear(); }

  /// Pre-size for a frame whose length the caller can compute, so the
  /// encode runs without reallocation.
  void Reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  void Put(T value) {
    using U = detail::WireCarrierT<T>;
    auto u = static_cast<U>(value);
    // Staged little-endian in a local array and appended with one
    // insert: a push_back per byte costs a capacity check each and, once
    // the compiler stops inlining them in a large encode loop, an
    // outlined call each.
    std::array<std::uint8_t, sizeof(U)> bytes;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      bytes[i] = static_cast<std::uint8_t>(u & 0xFF);
      u = static_cast<U>(u >> 8);
    }
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void PutBytes(BytesView data) {
    Put<std::uint32_t>(static_cast<std::uint32_t>(data.size()));
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Append pre-encoded material verbatim — no length prefix. Used to
  /// splice cached frame prefixes (e.g. a server's read reply, which is
  /// identical for every reader between state changes).
  void PutRaw(BytesView data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  void PutString(const std::string& s) {
    PutBytes(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                       s.size()));
  }

  /// Works with any sized, iterable container (std::vector,
  /// SmallVector, ...).
  template <typename C, typename Fn>
  void PutVector(const C& items, Fn&& encode_one) {
    Put<std::uint32_t>(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) encode_one(*this, item);
  }

  /// Append a field of variable width with one capacity operation:
  /// `fill` stores at most `max_bytes` through the pointer it is handed
  /// and returns one past the last byte it stored.
  template <typename Fill>
  void PutVariable(std::size_t max_bytes, Fill&& fill) {
    const std::size_t old_size = buf_.size();
    buf_.resize(old_size + max_bytes);
    const std::uint8_t* end = fill(buf_.data() + old_size);
    buf_.resize(static_cast<std::size_t>(end - buf_.data()));
  }

  /// Overwrite a fixed-width integer previously written at `offset`
  /// (same little-endian layout as Put). For prefixes whose value is
  /// only known once the rest of the frame has been encoded — e.g. the
  /// element count of an incrementally built batch frame. The offset
  /// must lie within already-written bytes.
  template <typename T>
    requires std::is_integral_v<T>
  void PatchAt(std::size_t offset, T value) {
    auto u = static_cast<std::make_unsigned_t<T>>(value);
    for (std::size_t i = 0; i < sizeof(u); ++i) {
      buf_[offset + i] = static_cast<std::uint8_t>(u & 0xFF);
      u = static_cast<std::make_unsigned_t<T>>(u >> 8);
    }
  }

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

class BufReader {
 public:
  explicit BufReader(BytesView data) : data_(data) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  T Get() {
    using U = detail::WireCarrierT<T>;
    if (!Need(sizeof(U))) return T{};
    U u = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      u |= static_cast<U>(static_cast<U>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(U);
    return static_cast<T>(u);
  }

  /// Zero-copy: a view of the next length-prefixed run, borrowed from
  /// the frame being decoded. Valid only while the frame's storage is —
  /// copy (ToBytes) before storing into long-lived state.
  BytesView GetBytesView() {
    const auto size = Get<std::uint32_t>();
    if (failed_ || size > kMaxWireElements || !Need(size)) {
      failed_ = true;
      return {};
    }
    BytesView out = data_.subspan(pos_, size);
    pos_ += size;
    return out;
  }

  Bytes GetBytes() {
    BytesView view = GetBytesView();
    return Bytes(view.begin(), view.end());
  }

  std::string GetString() {
    Bytes raw = GetBytes();
    return std::string(raw.begin(), raw.end());
  }

  /// A u32 count, then that many elements read by `decode_one`, each
  /// at least `min_bytes` (>= 1) long on the wire. A count the bytes
  /// left cannot hold fails the reader at once: those elements would
  /// run out of bytes anyway, so this rejects no frame the element walk
  /// accepts, and a garbage count allocates nothing. Otherwise the
  /// reserve is exactly `count` elements.
  template <typename T, typename Fn>
  std::vector<T> GetVector(std::size_t min_bytes, Fn&& decode_one) {
    const auto count = Get<std::uint32_t>();
    if (failed_ || count > kMaxWireElements ||
        count > remaining() / min_bytes) {
      failed_ = true;
      return {};
    }
    std::vector<T> out;
    out.reserve(count);
    for (std::uint32_t i = 0; i < count && !failed_; ++i) {
      out.push_back(decode_one(*this));
    }
    return out;
  }

  /// A varint as StoreVarint writes it. Fails the reader on a
  /// truncated varint, on one longer than kMaxVarintBytes and on a value
  /// past 32 bits.
  std::uint32_t GetVarint() {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (!Need(1)) return 0;
      const std::uint8_t byte = data_[pos_++];
      value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (value > 0xFFFFFFFFu) break;
        return static_cast<std::uint32_t>(value);
      }
    }
    failed_ = true;
    return 0;
  }

  /// Current read offset. With Skip, lets a lazy decoder validate a
  /// region's framing and capture its byte range for later
  /// materialization instead of decoding it eagerly.
  [[nodiscard]] std::size_t pos() const { return pos_; }

  /// Advance past n bytes without materializing them — same bounds
  /// checks and sticky-failure semantics as any read.
  bool Skip(std::size_t n) {
    if (!Need(n)) return false;
    pos_ += n;
    return true;
  }

  /// Mark the frame malformed: for decoders whose own checks reject
  /// bytes that are within bounds.
  void Fail() { failed_ = true; }

  /// True once any read ran past the buffer or a length prefix was
  /// implausible. Callers check this once after decoding a whole frame.
  [[nodiscard]] bool failed() const { return failed_; }

  /// True iff the whole buffer was consumed and nothing failed —
  /// trailing garbage also marks a frame invalid.
  [[nodiscard]] bool AtEndOk() const { return !failed_ && pos_ == data_.size(); }

  std::size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }

 private:
  bool Need(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace sbft
