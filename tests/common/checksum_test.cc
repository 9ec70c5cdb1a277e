#include "common/checksum.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace turbobp {
namespace {

TEST(Crc32cTest, KnownVector) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, KnownVectorOnes) {
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, KnownVectorAscending) {
  std::vector<uint8_t> asc(32);
  for (int i = 0; i < 32; ++i) asc[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(asc.data(), asc.size()), 0x46DD794Eu);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, SingleBitFlipChangesChecksum) {
  std::string data(100, 'a');
  const uint32_t before = Crc32c(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, Deterministic) {
  std::string data = "turbocharging dbms buffer pool using ssds";
  EXPECT_EQ(Crc32c(data.data(), data.size()),
            Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, CheckVectorOnBothPaths) {
  // The CRC32C catalogue "check" value: CRC of the ASCII digits 1..9.
  const std::string digits = "123456789";
  EXPECT_EQ(Crc32c(digits.data(), digits.size()), 0xE3069283u);
  EXPECT_EQ(Crc32cPortable(digits.data(), digits.size()), 0xE3069283u);
}

// Test windows start at byte 0..kOffsets-1 of a random buffer and span up to
// kMaxLen bytes.
constexpr size_t kMaxLen = 2100;
constexpr size_t kOffsets = 8;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

// Every length 0..2100 at every start offset 0..7 with a random seed: the
// dispatched kernel must equal the table loop. Each window is copied to a
// heap buffer that ends exactly where the window does, and the offsets put
// the 8-byte word loads at every alignment, so the ASan+UBSan build catches
// a misaligned or out-of-bounds load.
TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + kOffsets, 11);
  Rng rng(12);
  for (size_t off = 0; off < kOffsets; ++off) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const std::vector<uint8_t> window(buf.begin(),
                                        buf.begin() + off + len);
      const uint8_t* p = window.data() + off;
      const auto seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32c(p, len, seed), Crc32cPortable(p, len, seed))
          << "offset " << off << " length " << len << " seed " << seed;
      ASSERT_EQ(Crc32c(p, len), Crc32cPortable(p, len))
          << "offset " << off << " length " << len;
    }
  }
}

// Crc32c(b, Crc32c(a)) == Crc32c(a‖b) at random split points, on both
// paths and across them (hardware first half, table second half and back).
TEST(Crc32cTest, ChainingEqualsConcatenationAtRandomSplits) {
  const std::vector<uint8_t> buf = RandomBytes(kMaxLen + kOffsets, 21);
  Rng rng(22);
  for (int trial = 0; trial < 4000; ++trial) {
    const size_t off = rng.Uniform(kOffsets);
    const size_t len = rng.Uniform(kMaxLen + 1);
    const size_t split = rng.Uniform(len + 1);
    const auto seed = static_cast<uint32_t>(rng.Next());
    const uint8_t* a = buf.data() + off;
    const uint8_t* b = a + split;
    const size_t b_len = len - split;
    const uint32_t whole = Crc32cPortable(a, len, seed);
    ASSERT_EQ(Crc32c(a, len, seed), whole);
    ASSERT_EQ(Crc32c(b, b_len, Crc32c(a, split, seed)), whole)
        << "offset " << off << " length " << len << " split " << split;
    ASSERT_EQ(Crc32cPortable(b, b_len, Crc32cPortable(a, split, seed)), whole);
    ASSERT_EQ(Crc32cPortable(b, b_len, Crc32c(a, split, seed)), whole);
    ASSERT_EQ(Crc32c(b, b_len, Crc32cPortable(a, split, seed)), whole);
  }
}

}  // namespace
}  // namespace turbobp
