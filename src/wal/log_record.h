#ifndef TURBOBP_WAL_LOG_RECORD_H_
#define TURBOBP_WAL_LOG_RECORD_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "storage/storage_device.h"

namespace turbobp {

enum class LogRecordType : uint8_t {
  kUpdate = 0,      // physical redo: bytes at (page_id, offset)
  kCommit = 1,
  kBeginCheckpoint = 2,
  kEndCheckpoint = 3,
};

// On-device form of one record: a 36-byte header, then the payload.
//
//   [0, 8)   lsn          [24, 28) offset
//   [8, 16)  txn_id       [28, 32) type (low byte) | payload length << 8
//   [16, 24) page_id      [32, 36) CRC32-C (LogRecordChecksum)
//
// LSNs are byte offsets into the logical log, so a record's LSN plus its
// size is the next record's LSN. A flush writes its batch of records back to
// back from the start of a fresh page and pads the last page with zeros.
inline constexpr size_t kLogRecordHeaderBytes = 36;
// The 24-bit length field bounds one record's payload.
inline constexpr size_t kMaxLogPayloadBytes = (size_t{1} << 24) - 1;

// CRC32-C over lsn, the type byte, txn_id, page_id, offset, then the
// payload, chained through one running CRC. Sealed at append time; the
// device reader treats a mismatch as the torn end of the log.
uint32_t LogRecordChecksum(Lsn lsn, LogRecordType type, uint64_t txn_id,
                           PageId page_id, uint32_t offset,
                           std::span<const uint8_t> payload);

// Appends the on-device form of one record to `out`.
void EncodeLogRecord(Lsn lsn, LogRecordType type, uint64_t txn_id,
                     PageId page_id, uint32_t offset,
                     std::span<const uint8_t> payload,
                     std::vector<uint8_t>& out);

// Physiological redo record, as the device reader decodes it. Updates carry
// the after-image bytes of the modified byte range (page splits log
// whole-page images), which is all a redo-only recovery pass needs; the
// workloads in this repo never roll back, so no undo information is kept
// (documented in DESIGN.md).
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t txn_id = 0;
  PageId page_id = kInvalidPageId;
  uint32_t offset = 0;
  uint32_t checksum = 0;
  std::vector<uint8_t> bytes;
  // Byte offset on the log device where the reader found the record.
  uint64_t device_offset = 0;

  size_t SizeOnDisk() const { return kLogRecordHeaderBytes + bytes.size(); }

  uint32_t ComputeChecksum() const {
    return LogRecordChecksum(lsn, type, txn_id, page_id, offset, bytes);
  }
  bool VerifyChecksum() const { return checksum == ComputeChecksum(); }
};

// Where one pass over the log device ended.
struct LogScan {
  Lsn first_lsn = kInvalidLsn;  // oldest intact record on the device
  Lsn last_lsn = kInvalidLsn;   // last intact record: the durable log's end
  Lsn end_lsn = 1;              // the byte after it, where appends resume
  // Where appends resume: the first page boundary strictly after the last
  // intact record. Strictly after, because a torn block's leftover records
  // may follow the damaged one: the resumed log, which reuses the damaged
  // record's LSN, then sits at later positions than the leftovers with the
  // same LSNs, so none of them can carry the LSN a later scan expects.
  uint64_t next_page = 0;
  int64_t records = 0;          // intact records visited
  // The scan stopped at a record that claimed the next LSN but whose length
  // or CRC did not check out: a torn final write.
  bool torn = false;
};

// Reads the log device back in LSN order, calling `visit` (if set) for each
// intact record; the record is only valid during the call. The scan starts
// at the oldest record still on the device (the log wraps around the device
// when it reaches the end) and stops at the first record whose LSN breaks
// continuity or whose CRC fails: everything before that point is the
// durable log. Reads are uncharged — recovery's virtual time covers redo,
// not the scan.
LogScan ScanLogDevice(StorageDevice* device,
                      const std::function<void(const LogRecord&)>& visit = {});

}  // namespace turbobp

#endif  // TURBOBP_WAL_LOG_RECORD_H_
