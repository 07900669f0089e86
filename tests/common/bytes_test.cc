#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace velox {
namespace {

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutDouble(3.14159);

  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, RoundTripString) {
  ByteWriter w;
  w.PutString("hello velox");
  w.PutString("");
  ByteReader r(w.data());
  EXPECT_EQ(r.GetString().value(), "hello velox");
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, RoundTripDoubleVector) {
  std::vector<double> v = {1.0, -2.5, 1e-300, 1e300, 0.0};
  ByteWriter w;
  w.PutDoubleVector(v);
  ByteReader r(w.data());
  EXPECT_EQ(r.GetDoubleVector().value(), v);
}

TEST(BytesTest, RoundTripEmptyVector) {
  ByteWriter w;
  w.PutDoubleVector({});
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetDoubleVector().value().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutDouble(-std::numeric_limits<double>::infinity());
  w.PutDouble(std::numeric_limits<double>::quiet_NaN());
  ByteReader r(w.data());
  EXPECT_TRUE(std::isinf(r.GetDouble().value()));
  EXPECT_TRUE(std::isinf(r.GetDouble().value()));
  EXPECT_TRUE(std::isnan(r.GetDouble().value()));
}

TEST(BytesTest, UnderflowReturnsOutOfRange) {
  ByteWriter w;
  w.PutU32(7);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetU64().status().IsOutOfRange());
}

TEST(BytesTest, ReadFromEmptyBufferFails) {
  ByteReader r(nullptr, 0);
  EXPECT_TRUE(r.GetU8().status().IsOutOfRange());
  EXPECT_TRUE(r.GetString().status().IsOutOfRange());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter w;
  w.PutString("abcdef");
  std::vector<uint8_t> truncated = w.data();
  truncated.resize(truncated.size() - 3);
  ByteReader r(truncated);
  EXPECT_TRUE(r.GetString().status().IsOutOfRange());
}

TEST(BytesTest, CorruptVectorLengthRejectedWithoutHugeAllocation) {
  // A length prefix claiming 2^31 doubles must fail bounds validation
  // before any allocation of that size.
  ByteWriter w;
  w.PutU32(0x80000000u);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetDoubleVector().status().IsOutOfRange());
}

TEST(BytesTest, RemainingTracksPosition) {
  ByteWriter w;
  w.PutU32(1);
  w.PutU32(2);
  ByteReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  ASSERT_TRUE(r.GetU32().ok());
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(BytesTest, RandomRoundTripFuzz) {
  // Property: any randomly-composed write sequence reads back exactly,
  // and every strict prefix of the encoding fails cleanly.
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    ByteWriter w;
    // Record the schema so the reader can replay it.
    std::vector<int> schema;
    std::vector<uint64_t> u64s;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    std::vector<std::vector<double>> vectors;
    int fields = 1 + static_cast<int>(rng.UniformU64(10));
    for (int f = 0; f < fields; ++f) {
      switch (rng.UniformU64(4)) {
        case 0: {
          uint64_t v = rng.NextU64();
          w.PutU64(v);
          u64s.push_back(v);
          schema.push_back(0);
          break;
        }
        case 1: {
          double v = rng.Gaussian(0, 1e6);
          w.PutDouble(v);
          doubles.push_back(v);
          schema.push_back(1);
          break;
        }
        case 2: {
          std::string s(rng.UniformU64(20), 'x');
          for (char& c : s) c = static_cast<char>('a' + rng.UniformU64(26));
          w.PutString(s);
          strings.push_back(s);
          schema.push_back(2);
          break;
        }
        default: {
          std::vector<double> v(rng.UniformU64(8));
          for (double& d : v) d = rng.Gaussian();
          w.PutDoubleVector(v);
          vectors.push_back(v);
          schema.push_back(3);
        }
      }
    }
    // Full read-back.
    ByteReader r(w.data());
    size_t iu = 0, id = 0, is = 0, iv = 0;
    for (int kind : schema) {
      switch (kind) {
        case 0:
          ASSERT_EQ(r.GetU64().value(), u64s[iu++]);
          break;
        case 1:
          ASSERT_DOUBLE_EQ(r.GetDouble().value(), doubles[id++]);
          break;
        case 2:
          ASSERT_EQ(r.GetString().value(), strings[is++]);
          break;
        default:
          ASSERT_EQ(r.GetDoubleVector().value(), vectors[iv++]);
      }
    }
    ASSERT_TRUE(r.AtEnd());

    // A random strict prefix must fail somewhere, never crash.
    if (w.size() > 1) {
      size_t cut = rng.UniformU64(w.size());
      ByteReader trunc(w.data().data(), cut);
      bool failed = false;
      for (int kind : schema) {
        bool ok;
        switch (kind) {
          case 0:
            ok = trunc.GetU64().ok();
            break;
          case 1:
            ok = trunc.GetDouble().ok();
            break;
          case 2:
            ok = trunc.GetString().ok();
            break;
          default:
            ok = trunc.GetDoubleVector().ok();
        }
        if (!ok) {
          failed = true;
          break;
        }
      }
      EXPECT_TRUE(failed) << "prefix of " << cut << "/" << w.size()
                          << " decoded fully";
    }
  }
}

// The wire format every snapshot, WAL record and stored factor uses:
// fixed-width little-endian, doubles as their IEEE-754 bits.
TEST(BytesTest, EncodingIsPinnedLittleEndian) {
  ByteWriter w;
  w.Reserve(64);
  w.PutU8(0x7f);
  w.PutU32(0x04030201u);
  w.PutU64(0x0807060504030201ULL);
  w.PutDouble(1.0);
  w.PutDoubleVector({-2.0});
  const double row[2] = {0.5, 0.0};
  w.PutDoubles(row, 2);
  w.PutDoubles(nullptr, 0);
  const std::vector<uint8_t> expected = {
      0x7f,                                            // u8
      0x01, 0x02, 0x03, 0x04,                          // u32
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // 1.0
      0x01, 0x00, 0x00, 0x00,                          // vector length
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,  // -2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f,  // 0.5, no prefix
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0.0
  };
  EXPECT_EQ(w.data(), expected);
}

TEST(BytesTest, ReleaseMovesBufferOut) {
  ByteWriter w;
  w.PutU32(99);
  auto buf = w.Release();
  EXPECT_EQ(buf.size(), 4u);
}

}  // namespace
}  // namespace velox
