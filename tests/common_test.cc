#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "common/status.h"
#include "common/xor_util.h"

namespace rda {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status status = Status::Corruption("bad page");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(status.message(), "bad page");
  EXPECT_EQ(status.ToString(), "CORRUPTION: bad page");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsStatus) {
  Result<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> taken = std::move(result).value();
  EXPECT_EQ(taken.size(), 3u);
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.Next() == b.Next());
  }
  EXPECT_LT(equal, 4);
}

TEST(RandomTest, UniformRespectsBound) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.UniformRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values appear.
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.Bernoulli(0.5);
  }
  EXPECT_NEAR(heads, 5000, 300);
}

TEST(RandomTest, FillBytesCoversWholeBuffer) {
  Random rng(17);
  std::vector<uint8_t> bytes(37, 0);
  rng.FillBytes(&bytes);
  int nonzero = 0;
  for (const uint8_t b : bytes) {
    nonzero += (b != 0);
  }
  EXPECT_GT(nonzero, 25);  // Random bytes are rarely zero.
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (RFC 3720 test vector).
  const char data[] = "123456789";
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32Test, SeedChainsIncrementally) {
  const char data[] = "hello world";
  const uint32_t whole = Crc32c(data, 11);
  const uint32_t first = Crc32c(data, 5);
  const uint32_t chained = Crc32c(data + 5, 6, first);
  EXPECT_EQ(whole, chained);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(128, 0x3c);
  const uint32_t before = Crc32c(data.data(), data.size());
  data[77] ^= 0x01;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

// RFC 3720 Appendix B.4 known-answer vectors, checked against both the
// portable slice-by-8 path and (when the CPU has it) the hardware path.
TEST(Crc32Test, Rfc3720KnownAnswers) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xff);
  std::vector<uint8_t> incrementing(32);
  std::vector<uint8_t> decrementing(32);
  for (size_t i = 0; i < 32; ++i) {
    incrementing[i] = static_cast<uint8_t>(i);
    decrementing[i] = static_cast<uint8_t>(31 - i);
  }
  const std::vector<uint8_t> iscsi_read_10 = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};

  struct Vector {
    const std::vector<uint8_t>* data;
    uint32_t expected;
  };
  const Vector vectors[] = {
      {&zeros, 0x8a9136aau},
      {&ones, 0x62a8ab43u},
      {&incrementing, 0x46dd794eu},
      {&decrementing, 0x113fdb5cu},
      {&iscsi_read_10, 0xd9963a56u},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Crc32c(v.data->data(), v.data->size()), v.expected);
    EXPECT_EQ(Crc32cSoftware(v.data->data(), v.data->size()), v.expected);
    if (Crc32cHardwareAvailable()) {
      EXPECT_EQ(Crc32cHardware(v.data->data(), v.data->size()), v.expected);
    }
  }
}

// The hardware and software implementations must be bit-identical for
// every length and alignment — log frames and page images hit both odd
// sizes and odd offsets.
TEST(Crc32Test, HardwareMatchesSoftware) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no CRC32C instructions on this CPU";
  }
  Random rng(47);
  std::vector<uint8_t> data(1024 + 16);
  rng.FillBytes(&data);
  for (const size_t size : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 63u, 512u, 1024u}) {
    for (const size_t offset : {0u, 1u, 5u}) {
      const uint32_t sw = Crc32cSoftware(data.data() + offset, size);
      const uint32_t hw = Crc32cHardware(data.data() + offset, size);
      EXPECT_EQ(sw, hw) << "size=" << size << " offset=" << offset;
      // Seeded (chained) calls must agree too.
      EXPECT_EQ(Crc32cSoftware(data.data() + offset, size, 0xdeadbeef),
                Crc32cHardware(data.data() + offset, size, 0xdeadbeef));
    }
  }
}

TEST(Crc32Test, ImplNameIsConsistentWithAvailability) {
  const char* name = Crc32cImplName();
  if (Crc32cHardwareAvailable()) {
    EXPECT_STRNE(name, "software");
  } else {
    EXPECT_STREQ(name, "software");
  }
}

TEST(XorTest, SelfInverse) {
  Random rng(23);
  std::vector<uint8_t> a(100);
  std::vector<uint8_t> b(100);
  rng.FillBytes(&a);
  rng.FillBytes(&b);
  std::vector<uint8_t> original = a;
  XorInto(&a, b);
  EXPECT_NE(a, original);
  XorInto(&a, b);
  EXPECT_EQ(a, original);
}

TEST(XorTest, OddSizesHandled) {
  for (const size_t size : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    std::vector<uint8_t> a(size, 0xff);
    std::vector<uint8_t> b(size, 0x0f);
    XorInto(&a, b);
    for (const uint8_t byte : a) {
      EXPECT_EQ(byte, 0xf0);
    }
  }
}

TEST(XorTest, AllZeroDetector) {
  std::vector<uint8_t> zero(64, 0);
  EXPECT_TRUE(AllZero(zero.data(), zero.size()));
  zero[63] = 1;
  EXPECT_FALSE(AllZero(zero.data(), zero.size()));
}

// The word-at-a-time fast paths must handle buffers that are not a
// multiple of the word size: the tail bytes are where a sloppy
// implementation would read past the end or skip data.
TEST(XorTest, UnalignedSizesBothHelpers) {
  Random rng(53);
  for (const size_t size : {0u, 1u, 7u, 9u, 513u}) {
    // AllZero: all-zero buffer is zero; setting any single byte flips it.
    std::vector<uint8_t> zero(size, 0);
    EXPECT_TRUE(AllZero(zero.data(), zero.size())) << "size=" << size;
    for (const size_t flip : {size_t{0}, size / 2, size - 1}) {
      if (size == 0) {
        break;
      }
      std::vector<uint8_t> buf(size, 0);
      buf[flip] = 0x80;
      EXPECT_FALSE(AllZero(buf.data(), buf.size()))
          << "size=" << size << " flip=" << flip;
    }

    // XorInto: compare against a bytewise reference on random data.
    std::vector<uint8_t> a(size);
    std::vector<uint8_t> b(size);
    rng.FillBytes(&a);
    rng.FillBytes(&b);
    std::vector<uint8_t> expected(size);
    for (size_t i = 0; i < size; ++i) {
      expected[i] = a[i] ^ b[i];
    }
    XorInto(&a, b);
    EXPECT_EQ(a, expected) << "size=" << size;
  }
}

// Parity algebra property: XOR of any even multiset of pages cancels —
// the identity behind D_old = (P xor P') xor D_new.
TEST(XorTest, ParityUndoIdentity) {
  Random rng(31);
  std::vector<uint8_t> d_old(256);
  std::vector<uint8_t> d_new(256);
  std::vector<uint8_t> others(256);  // XOR of the group's other pages.
  rng.FillBytes(&d_old);
  rng.FillBytes(&d_new);
  rng.FillBytes(&others);

  // P  = parity before the update, P' = parity after.
  std::vector<uint8_t> p = others;
  XorInto(&p, d_old);
  std::vector<uint8_t> p_prime = others;
  XorInto(&p_prime, d_new);

  std::vector<uint8_t> recovered = p;
  XorInto(&recovered, p_prime);
  XorInto(&recovered, d_new);
  EXPECT_EQ(recovered, d_old);
}

}  // namespace
}  // namespace rda
