// Unit tests for the bounds-checked wire codec. The decoding paths are
// the first line of defence against corrupted channel contents (§II),
// so the garbage cases matter as much as the round-trips.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>

#include "common/rng.hpp"

namespace sbft {
namespace {

TEST(Serialize, RoundTripsIntegers) {
  BufWriter w;
  w.Put<std::uint8_t>(0xAB);
  w.Put<std::uint32_t>(0xDEADBEEF);
  w.Put<std::uint64_t>(std::numeric_limits<std::uint64_t>::max());
  w.Put<std::int32_t>(-12345);

  BufReader r(w.data());
  EXPECT_EQ(r.Get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.Get<std::uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.Get<std::uint64_t>(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.Get<std::int32_t>(), -12345);
  EXPECT_TRUE(r.AtEndOk());
}

TEST(Serialize, VarintsRoundTripAtEveryWidth) {
  const std::uint32_t values[] = {0,     1,      127,     128,
                                  16383, 16384,  65535,   65536,
                                  65537, 1u << 28, 0xFFFFFFFFu};
  const std::size_t widths[] = {1, 1, 1, 2, 2, 3, 3, 3, 3, 5, 5};
  BufWriter w;
  for (std::size_t i = 0; i < std::size(values); ++i) {
    const std::size_t before = w.data().size();
    w.PutVariable(kMaxVarintBytes, [&](std::uint8_t* out) {
      return StoreVarint(out, values[i]);
    });
    EXPECT_EQ(w.data().size() - before, widths[i]) << values[i];
  }
  const Bytes wire = w.Take();
  BufReader r(wire);
  for (const std::uint32_t value : values) EXPECT_EQ(r.GetVarint(), value);
  EXPECT_TRUE(r.AtEndOk());
}

TEST(Serialize, MalformedVarintsFailSticky) {
  const Bytes truncated{0x80, 0x81};
  const Bytes six_bytes{0x80, 0x80, 0x80, 0x80, 0x80, 0x00};
  const Bytes past_32_bits{0xFF, 0xFF, 0xFF, 0xFF, 0x10};
  for (const Bytes& bad : {truncated, six_bytes, past_32_bits}) {
    BufReader r(bad);
    EXPECT_EQ(r.GetVarint(), 0u);
    EXPECT_TRUE(r.failed());
    EXPECT_EQ(r.Get<std::uint8_t>(), 0u);  // sticky
  }
}

TEST(Serialize, RoundTripsStringsAndBytes) {
  BufWriter w;
  w.PutString("hello register");
  w.PutString("");
  w.PutBytes(Bytes{1, 2, 3});

  BufReader r(w.data());
  EXPECT_EQ(r.GetString(), "hello register");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEndOk());
}

TEST(Serialize, RoundTripsVectors) {
  BufWriter w;
  std::vector<std::uint32_t> values{7, 11, 13};
  w.PutVector(values,
              [](BufWriter& bw, std::uint32_t v) { bw.Put<std::uint32_t>(v); });

  BufReader r(w.data());
  auto decoded = r.GetVector<std::uint32_t>(
      4, [](BufReader& br) { return br.Get<std::uint32_t>(); });
  EXPECT_EQ(decoded, values);
  EXPECT_EQ(decoded.capacity(), values.size());  // reserved exactly
  EXPECT_TRUE(r.AtEndOk());
}

TEST(Serialize, TruncatedIntegerFailsSticky) {
  Bytes two_bytes{0x01, 0x02};
  BufReader r(two_bytes);
  (void)r.Get<std::uint32_t>();
  EXPECT_TRUE(r.failed());
  // Sticky: subsequent reads also fail and return zero values.
  EXPECT_EQ(r.Get<std::uint8_t>(), 0);
  EXPECT_TRUE(r.failed());
  EXPECT_FALSE(r.AtEndOk());
}

TEST(Serialize, AbsurdLengthPrefixRejected) {
  BufWriter w;
  w.Put<std::uint32_t>(0xFFFFFFFF);  // length prefix far beyond buffer
  BufReader r(w.data());
  Bytes out = r.GetBytes();
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(r.failed());
}

TEST(Serialize, VectorWithHugeCountRejected) {
  BufWriter w;
  w.Put<std::uint32_t>(kMaxWireElements + 1);
  BufReader r(w.data());
  auto decoded = r.GetVector<std::uint32_t>(
      4, [](BufReader& br) { return br.Get<std::uint32_t>(); });
  EXPECT_TRUE(decoded.empty());
  EXPECT_TRUE(r.failed());
}

TEST(Serialize, TrailingGarbageNotAtEndOk) {
  BufWriter w;
  w.Put<std::uint16_t>(5);
  w.Put<std::uint8_t>(9);
  BufReader r(w.data());
  EXPECT_EQ(r.Get<std::uint16_t>(), 5);
  EXPECT_FALSE(r.AtEndOk());  // one byte left unread
}

TEST(Serialize, VectorReserveCappedByRemainingBytes) {
  // A forged count below kMaxWireElements but far beyond the frame's
  // actual contents must not pre-allocate past the frame. Elements of at
  // least 8 bytes cannot fit 500,000 times in 8 bytes, so the decode
  // fails at once: no element is read and nothing is reserved.
  BufWriter w;
  w.Put<std::uint32_t>(500'000);  // claims half a million elements
  w.Put<std::uint64_t>(1);        // ...but only one is present
  BufReader r(w.data());
  int decoded = 0;
  auto out = r.GetVector<std::uint64_t>(8, [&](BufReader& br) {
    ++decoded;
    return br.Get<std::uint64_t>();
  });
  EXPECT_TRUE(r.failed());
  EXPECT_LE(out.capacity(), w.data().size());
  EXPECT_EQ(out.capacity(), 0u);
  EXPECT_EQ(decoded, 0);

  // The bound is the element's shortest encoding, not one byte: two
  // 8-byte elements claimed with 15 bytes left fail the same way.
  BufWriter short_frame;
  short_frame.Put<std::uint32_t>(2);
  short_frame.Put<std::uint64_t>(1);
  for (int i = 0; i < 7; ++i) short_frame.Put<std::uint8_t>(0);
  BufReader r2(short_frame.data());
  auto none = r2.GetVector<std::uint64_t>(
      8, [](BufReader& br) { return br.Get<std::uint64_t>(); });
  EXPECT_TRUE(r2.failed());
  EXPECT_EQ(none.capacity(), 0u);
}

TEST(Serialize, WriterReusesCallerBuffer) {
  Bytes recycled;
  recycled.reserve(256);
  const auto* storage = recycled.data();
  BufWriter w(std::move(recycled));
  w.Put<std::uint32_t>(42);
  Bytes out = w.Take();
  EXPECT_EQ(out.data(), storage);  // no fresh allocation
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 42u);
}

// Property: decoding arbitrary garbage never crashes and either fails or
// consumes within bounds. This is exercised at scale because garbage
// frames are a first-class input in the transient-fault model.
TEST(Serialize, FuzzDecodingGarbageIsTotal) {
  Rng rng(0x5EED);
  for (int round = 0; round < 2000; ++round) {
    Bytes garbage = RandomBytes(rng, rng.NextBelow(64));
    BufReader r(garbage);
    (void)r.Get<std::uint32_t>();
    (void)r.GetString();
    (void)r.GetVector<std::uint64_t>(
        8, [](BufReader& br) { return br.Get<std::uint64_t>(); });
    (void)r.GetBytes();
    // No assertion needed beyond "did not crash"; but the reader must
    // never report more remaining bytes than the buffer held.
    EXPECT_LE(r.remaining(), garbage.size());
  }
}

}  // namespace
}  // namespace sbft
