#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

// The record checksum is defined field by field: lsn, the type byte,
// txn_id, page_id, offset, then the after-image bytes, chained through one
// running CRC32C with the table kernel. ComputeChecksum must keep producing
// exactly this value however it batches the fields.
uint32_t FieldByFieldChecksum(const LogRecord& rec) {
  uint32_t crc = Crc32cPortable(&rec.lsn, sizeof(rec.lsn));
  const auto type_byte = static_cast<uint8_t>(rec.type);
  crc = Crc32cPortable(&type_byte, sizeof(type_byte), crc);
  crc = Crc32cPortable(&rec.txn_id, sizeof(rec.txn_id), crc);
  crc = Crc32cPortable(&rec.page_id, sizeof(rec.page_id), crc);
  crc = Crc32cPortable(&rec.offset, sizeof(rec.offset), crc);
  if (!rec.bytes.empty()) {
    crc = Crc32cPortable(rec.bytes.data(), rec.bytes.size(), crc);
  }
  return crc;
}

TEST(LogRecordChecksumTest, MatchesFieldByFieldDefinition) {
  Rng rng(7);
  for (int trial = 0; trial < 2000; ++trial) {
    LogRecord rec;
    rec.lsn = rng.Next();
    rec.type = static_cast<LogRecordType>(rng.Uniform(4));
    rec.txn_id = rng.Next();
    rec.page_id = rng.Next();
    rec.offset = static_cast<uint32_t>(rng.Next());
    rec.bytes.resize(trial % 3 == 0 ? 0 : rng.Uniform(1100));
    for (auto& b : rec.bytes) b = static_cast<uint8_t>(rng.Next());
    ASSERT_EQ(rec.ComputeChecksum(), FieldByFieldChecksum(rec))
        << "trial " << trial << " payload " << rec.bytes.size();
  }
}

}  // namespace
}  // namespace turbobp
