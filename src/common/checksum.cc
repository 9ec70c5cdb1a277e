#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define TURBOBP_CRC32C_SSE42 1
#endif

namespace turbobp {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC32C polynomial

constexpr std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = BuildTable();

#ifdef TURBOBP_CRC32C_SSE42
// The CRC32 instruction implements the same reflected Castagnoli CRC as the
// table loop, eight bytes per step. memcpy makes the word loads legal at any
// alignment; it compiles to a plain unaligned load.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n,
                                                       uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cKernel = uint32_t (*)(const void*, size_t, uint32_t);

Crc32cKernel SelectKernel() {
#ifdef TURBOBP_CRC32C_SSE42
  __builtin_cpu_init();  // safe even if the first call comes from a ctor
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return &Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cKernel kKernel = SelectKernel();
  return kKernel(data, n, seed);
}

}  // namespace turbobp
