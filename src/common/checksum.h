#ifndef TURBOBP_COMMON_CHECKSUM_H_
#define TURBOBP_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace turbobp {

// CRC32C (Castagnoli). Every page carries a checksum over its payload; the
// buffer manager verifies it on each device read, so any stale- or
// torn-copy bug between the three page locations (memory / SSD / disk)
// surfaces immediately as corruption. WAL records and the SSD journal are
// sealed with it too.
//
// On x86-64 CPUs with SSE4.2 this runs the CRC32 instruction over 8-byte
// words; the kernel is chosen once, at first use, by a CPUID check, and
// every other build or CPU runs Crc32cPortable. Both compute the same
// function bit for bit, so the choice never changes a stored checksum.
// `seed` chains calls: Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a‖b).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// The bytewise table loop: the fallback kernel, and the reference the
// hardware kernel is tested against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace turbobp

#endif  // TURBOBP_COMMON_CHECKSUM_H_
