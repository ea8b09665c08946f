// Unit tests for the binary codec: roundtrips, bounds checking, and
// robustness of every decode path against truncated/garbage input.
#include "common/codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace nadreg {
namespace {

TEST(EncoderDecoder, PrimitivesRoundtrip) {
  std::string buf;
  Encoder e(&buf);
  e.PutU8(0xab);
  e.PutU32(0xdeadbeef);
  e.PutU64(0x0123456789abcdefULL);
  e.PutBytes("hello");

  Decoder d(buf);
  auto u8 = d.GetU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 0xab);
  auto u32 = d.GetU32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xdeadbeefu);
  auto u64 = d.GetU64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789abcdefULL);
  auto bytes = d.GetBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello");
  EXPECT_TRUE(d.AtEnd());
}

TEST(EncoderDecoder, EmptyBytesRoundtrip) {
  std::string buf;
  Encoder e(&buf);
  e.PutBytes("");
  Decoder d(buf);
  auto bytes = d.GetBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(bytes->empty());
  EXPECT_TRUE(d.AtEnd());
}

TEST(EncoderDecoder, TruncatedReadsFail) {
  Decoder d0("");
  EXPECT_FALSE(d0.GetU8().ok());

  Decoder d1("abc");
  EXPECT_FALSE(d1.GetU32().ok());

  Decoder d2("abcdefg");
  EXPECT_FALSE(d2.GetU64().ok());

  // Length prefix claims more bytes than available.
  std::string buf;
  Encoder e(&buf);
  e.PutU32(100);
  buf += "short";
  Decoder d3(buf);
  EXPECT_FALSE(d3.GetBytes().ok());
}

TEST(TaggedValue, Roundtrip) {
  TaggedValue tv{42, 7, "payload with \0 byte inside"};
  tv.payload = std::string("a\0b", 3);
  auto decoded = DecodeTaggedValue(EncodeTaggedValue(tv));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, tv);
}

TEST(TaggedValue, EmptyBytesIsInitialValue) {
  auto decoded = DecodeTaggedValue("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->seq, 0u);
  EXPECT_EQ(decoded->writer, kNoProcess);
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(TaggedValue, TrailingBytesRejected) {
  std::string buf = EncodeTaggedValue(TaggedValue{1, 2, "x"});
  buf += "junk";
  EXPECT_FALSE(DecodeTaggedValue(buf).ok());
}

TEST(TaggedValue, FresherThanComparesSeq) {
  TaggedValue older{1, 3, "a"};
  TaggedValue newer{2, 4, "b"};
  EXPECT_TRUE(newer.FresherThan(older));
  EXPECT_FALSE(older.FresherThan(newer));
  EXPECT_FALSE(older.FresherThan(older));
}

TEST(NameCodec, Roundtrip) {
  Name n{0x12345678u, 0x9abcu};
  auto decoded = DecodeName(EncodeName(n));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, n);
}

TEST(NameSetCodec, Roundtrip) {
  std::vector<Name> names{{1, 0}, {1, 1}, {7, 3}, {1000000, 65535}};
  auto decoded = DecodeNameSet(EncodeNameSet(names));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, names);
}

TEST(NameSetCodec, EmptySetRoundtrip) {
  auto decoded = DecodeNameSet(EncodeNameSet({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(NameSetCodec, SmallIdsEncodeCompactly) {
  // Names are varint pairs: ids below 128 cost 2 bytes, not 16.
  std::vector<Name> names;
  for (std::uint64_t i = 0; i < 64; ++i) names.push_back(Name{i % 4 + 1, i});
  const std::string bytes = EncodeNameSet(names);
  EXPECT_EQ(bytes.size(), 1u + 64u * 2u);
  auto decoded = DecodeNameSet(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, names);
}

TEST(NameSetCodec, HostileCountRejectedBeforeAllocating) {
  std::string bytes;
  Encoder e(&bytes);
  e.PutVarint(~0ULL);  // claims 2^64 - 1 names
  e.PutVarint(1);
  e.PutVarint(2);
  EXPECT_FALSE(DecodeNameSet(bytes).ok());
}

TEST(VarintCodec, RoundtripsBoundaryValuesAndRejectsOverflow) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                          (1ULL << 63), ~0ULL}) {
    std::string bytes;
    Encoder(&bytes).PutVarint(v);
    Decoder d(bytes);
    auto got = d.GetVarint();
    ASSERT_TRUE(got.ok()) << v;
    EXPECT_EQ(*got, v);
    EXPECT_TRUE(d.AtEnd());
  }
  // Eleven continuation bytes, or a tenth byte carrying bits past 64.
  EXPECT_FALSE(Decoder(std::string(11, '\x80')).GetVarint().ok());
  EXPECT_FALSE(Decoder(std::string(9, '\xff') + '\x02').GetVarint().ok());
  EXPECT_FALSE(Decoder(std::string(1, '\x80')).GetVarint().ok());
}

TEST(SnapRecordCodec, Roundtrip) {
  SnapRecord rec;
  rec.value = "the written value";
  rec.snapshot = {{1, 0}, {2, 5}, {3, 1}};
  auto decoded = DecodeSnapRecord(EncodeSnapRecord(rec));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, rec);
}

TEST(SnapRecordCodec, TruncatedSnapshotFails) {
  SnapRecord rec;
  rec.value = "v";
  rec.snapshot = {{1, 0}, {2, 5}};
  std::string buf = EncodeSnapRecord(rec);
  buf.resize(buf.size() - 3);
  EXPECT_FALSE(DecodeSnapRecord(buf).ok());
}

// Property sweep: random garbage never crashes a decoder and either fails
// cleanly or decodes to something re-encodable.
class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesDecodeTotally) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    std::string garbage;
    const std::size_t len = rng.Below(64);
    garbage.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Below(256)));
    }
    auto tv = DecodeTaggedValue(garbage);
    if (tv.ok() && !garbage.empty()) {
      EXPECT_EQ(EncodeTaggedValue(*tv), garbage);
    }
    (void)DecodeSnapRecord(garbage);
    (void)DecodeNameSet(garbage);
    (void)DecodeName(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(TaggedValueFuzz, RandomValuesRoundtrip) {
  Rng rng(99);
  for (int iter = 0; iter < 500; ++iter) {
    TaggedValue tv;
    tv.writer = rng();
    tv.seq = rng();
    std::string payload;
    const std::size_t len = rng.Below(128);
    for (std::size_t i = 0; i < len; ++i) {
      payload.push_back(static_cast<char>(rng.Below(256)));
    }
    tv.payload = payload;
    auto decoded = DecodeTaggedValue(EncodeTaggedValue(tv));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, tv);
  }
}

}  // namespace
}  // namespace nadreg
