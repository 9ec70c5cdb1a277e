#include "wal/log_record.h"

#include <algorithm>
#include <cstring>

#include "common/checksum.h"
#include "common/status.h"

namespace turbobp {

uint32_t LogRecordChecksum(Lsn lsn, LogRecordType type, uint64_t txn_id,
                           PageId page_id, uint32_t offset,
                           std::span<const uint8_t> payload) {
  // The header fields packed back to back, then the payload: two kernel
  // calls per record. A CRC chained field by field equals the CRC of the
  // concatenation, so the value is the same as hashing each field in turn.
  const uint8_t type_byte = static_cast<uint8_t>(type);
  uint8_t header[sizeof(lsn) + sizeof(type_byte) + sizeof(txn_id) +
                 sizeof(page_id) + sizeof(offset)];
  size_t at = 0;
  auto put = [&](const void* field, size_t n) {
    std::memcpy(header + at, field, n);
    at += n;
  };
  put(&lsn, sizeof(lsn));
  put(&type_byte, sizeof(type_byte));
  put(&txn_id, sizeof(txn_id));
  put(&page_id, sizeof(page_id));
  put(&offset, sizeof(offset));
  static_assert(sizeof(header) == 29);
  const uint32_t crc = Crc32c(header, sizeof(header));
  return payload.empty() ? crc : Crc32c(payload.data(), payload.size(), crc);
}

void EncodeLogRecord(Lsn lsn, LogRecordType type, uint64_t txn_id,
                     PageId page_id, uint32_t offset,
                     std::span<const uint8_t> payload,
                     std::vector<uint8_t>& out) {
  TURBOBP_CHECK(payload.size() <= kMaxLogPayloadBytes);
  const uint32_t type_len =
      static_cast<uint32_t>(type) | static_cast<uint32_t>(payload.size()) << 8;
  const uint32_t crc =
      LogRecordChecksum(lsn, type, txn_id, page_id, offset, payload);
  const size_t at = out.size();
  out.resize(at + kLogRecordHeaderBytes + payload.size());
  uint8_t* p = out.data() + at;
  std::memcpy(p + 0, &lsn, 8);
  std::memcpy(p + 8, &txn_id, 8);
  std::memcpy(p + 16, &page_id, 8);
  std::memcpy(p + 24, &offset, 4);
  std::memcpy(p + 28, &type_len, 4);
  std::memcpy(p + 32, &crc, 4);
  if (!payload.empty()) {
    std::memcpy(p + kLogRecordHeaderBytes, payload.data(), payload.size());
  }
}

namespace {

// The device as one byte stream, read through a small window of pages.
class DeviceBytes {
 public:
  explicit DeviceBytes(StorageDevice* dev)
      : dev_(dev),
        page_bytes_(dev->page_bytes()),
        size_(dev->num_pages() * dev->page_bytes()) {}

  uint32_t page_bytes() const { return page_bytes_; }

  // Copies [pos, pos + n) to `out`; false if that runs past the device end.
  bool Read(uint64_t pos, size_t n, uint8_t* out) {
    if (pos > size_ || n > size_ - pos) return false;
    while (n > 0) {
      const uint64_t page = pos / page_bytes_;
      if (page < first_ || page >= first_ + count_) Load(page);
      const uint64_t at = pos - first_ * page_bytes_;
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(n, count_ * page_bytes_ - at));
      std::memcpy(out, window_.data() + at, take);
      out += take;
      pos += take;
      n -= take;
    }
    return true;
  }

 private:
  static constexpr uint64_t kWindowPages = 32;

  void Load(uint64_t page) {
    count_ = std::min(kWindowPages, dev_->num_pages() - page);
    window_.resize(count_ * page_bytes_);
    const IoResult r = dev_->Read(page, static_cast<uint32_t>(count_), window_,
                                  /*now=*/0, /*charge=*/false);
    TURBOBP_CHECK_OK(r.status);
    first_ = page;
  }

  StorageDevice* dev_;
  const uint32_t page_bytes_;
  const uint64_t size_;
  std::vector<uint8_t> window_;
  uint64_t first_ = 0;
  uint64_t count_ = 0;
};

enum class Parse { kOk, kNoRecord, kTorn };

// Decodes the record at byte `pos`. With `expected` set, a header carrying
// that LSN whose length or CRC fails is torn; any other LSN is no record
// (block padding, an older lap, never-written space). With `expected` ==
// kInvalidLsn any CRC-intact record is accepted.
Parse ParseAt(DeviceBytes& bytes, uint64_t pos, Lsn expected, LogRecord& rec) {
  uint8_t h[kLogRecordHeaderBytes];
  if (!bytes.Read(pos, sizeof(h), h)) return Parse::kNoRecord;
  uint32_t type_len = 0;
  std::memcpy(&rec.lsn, h + 0, 8);
  std::memcpy(&rec.txn_id, h + 8, 8);
  std::memcpy(&rec.page_id, h + 16, 8);
  std::memcpy(&rec.offset, h + 24, 4);
  std::memcpy(&type_len, h + 28, 4);
  std::memcpy(&rec.checksum, h + 32, 4);
  if (rec.lsn == kInvalidLsn) return Parse::kNoRecord;
  if (expected != kInvalidLsn && rec.lsn != expected) return Parse::kNoRecord;
  const Parse bad = expected != kInvalidLsn ? Parse::kTorn : Parse::kNoRecord;
  const uint8_t type = static_cast<uint8_t>(type_len & 0xFF);
  if (type > static_cast<uint8_t>(LogRecordType::kEndCheckpoint)) return bad;
  rec.type = static_cast<LogRecordType>(type);
  rec.bytes.resize(type_len >> 8);
  if (!bytes.Read(pos + sizeof(h), rec.bytes.size(), rec.bytes.data())) {
    return bad;
  }
  return rec.VerifyChecksum() ? Parse::kOk : bad;
}

uint64_t RoundUp(uint64_t pos, uint32_t page_bytes) {
  return (pos + page_bytes - 1) / page_bytes * page_bytes;
}

// The first page boundary strictly after `pos`.
uint64_t NextBoundary(uint64_t pos, uint32_t page_bytes) {
  return (pos / page_bytes + 1) * page_bytes;
}

// Follows the record chain from byte `pos`, where a record carrying
// `expected` (or any intact record, if kInvalidLsn) must begin. A block ends
// in zero padding, so a miss moves to the first page boundary after it,
// where the next block starts; a second miss there ends the chain. With
// `wrap`, the chain may continue once at page 0 (the log wrapped around the
// device end).
struct Chain {
  Lsn first = kInvalidLsn;
  Lsn last = kInvalidLsn;
  Lsn end = kInvalidLsn;
  uint64_t end_pos = 0;  // byte after the last record
  int64_t records = 0;
  bool torn = false;
};

Chain Follow(DeviceBytes& bytes, uint64_t pos, Lsn expected, bool wrap,
             const std::function<void(const LogRecord&)>& visit) {
  const uint32_t pb = bytes.page_bytes();
  Chain c;
  LogRecord rec;
  for (;;) {
    Parse p = ParseAt(bytes, pos, expected, rec);
    bool torn = p == Parse::kTorn;
    if (p != Parse::kOk) {
      pos = NextBoundary(pos, pb);
      p = ParseAt(bytes, pos, expected, rec);
      torn = torn || p == Parse::kTorn;
    }
    if (p != Parse::kOk && wrap && pos != 0 && expected != kInvalidLsn) {
      wrap = false;
      pos = 0;
      p = ParseAt(bytes, pos, expected, rec);
      torn = torn || p == Parse::kTorn;
    }
    if (p != Parse::kOk) {
      c.torn = torn;
      return c;
    }
    if (c.first == kInvalidLsn) c.first = rec.lsn;
    rec.device_offset = pos;
    if (visit) visit(rec);
    c.last = rec.lsn;
    c.end = rec.lsn + rec.SizeOnDisk();
    c.end_pos = pos + rec.SizeOnDisk();
    ++c.records;
    pos = c.end_pos;
    expected = c.end;
  }
}

}  // namespace

LogScan ScanLogDevice(StorageDevice* device,
                      const std::function<void(const LogRecord&)>& visit) {
  DeviceBytes bytes(device);
  const uint32_t pb = bytes.page_bytes();
  LogRecord head;
  const Parse at_zero = ParseAt(bytes, 0, kInvalidLsn, head);

  // Where the oldest record lies. The log starts at page 0 with LSN 1 until
  // it first wraps; after that page 0 holds the newest lap, and the oldest
  // surviving records begin at the first intact record start past the
  // newest lap's end — provided their chain runs into page 0's LSN (else
  // they are an even older lap's leftovers).
  uint64_t start = 0;
  bool wrapped = false;
  if (at_zero != Parse::kOk || head.lsn != 1) {
    uint64_t from_page = 1;
    if (at_zero == Parse::kOk) {
      const Chain newest = Follow(bytes, 0, head.lsn, false, {});
      from_page = RoundUp(newest.end_pos, pb) / pb;
    } else {
      std::vector<uint8_t> page(pb);
      bytes.Read(0, pb, page.data());
      if (std::all_of(page.begin(), page.end(),
                      [](uint8_t b) { return b == 0; })) {
        return LogScan{};  // never written: an empty log
      }
    }
    LogRecord rec;
    for (uint64_t p = from_page; p < device->num_pages(); ++p) {
      if (ParseAt(bytes, p * pb, kInvalidLsn, rec) != Parse::kOk) continue;
      const Chain older = Follow(bytes, p * pb, rec.lsn, false, {});
      if (at_zero != Parse::kOk || older.end == head.lsn) {
        start = p * pb;
        wrapped = true;
      }
      break;
    }
  }

  LogRecord first;
  if (ParseAt(bytes, start, kInvalidLsn, first) != Parse::kOk) return LogScan{};
  const Chain chain = Follow(bytes, start, first.lsn, wrapped, visit);
  LogScan scan;
  scan.first_lsn = chain.first;
  scan.last_lsn = chain.last;
  scan.end_lsn = chain.end;
  scan.next_page = NextBoundary(chain.end_pos, pb) / pb;
  scan.records = chain.records;
  scan.torn = chain.torn;
  return scan;
}

}  // namespace turbobp
