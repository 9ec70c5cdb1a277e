#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include <memory>

#include "storage/sim_device.h"

namespace turbobp {
namespace {

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest()
      : dev_(1 << 12, 1024, std::make_unique<HddModel>()), log_(&dev_) {}

  // Every intact record on the log device, in LSN order.
  std::vector<LogRecord> OnDevice() {
    std::vector<LogRecord> records;
    ScanLogDevice(&dev_,
                  [&](const LogRecord& rec) { records.push_back(rec); });
    return records;
  }

  SimDevice dev_;
  LogManager log_;
};

TEST_F(LogManagerTest, LsnsAreMonotonic) {
  std::vector<uint8_t> bytes(10, 1);
  const Lsn a = log_.AppendUpdate(1, 5, 0, bytes);
  const Lsn b = log_.AppendUpdate(1, 6, 0, bytes);
  const Lsn c = log_.AppendCommit(1);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(log_.num_records(), 3);
}

TEST_F(LogManagerTest, NothingDurableBeforeFlush) {
  std::vector<uint8_t> bytes(10, 1);
  const Lsn a = log_.AppendUpdate(1, 5, 0, bytes);
  EXPECT_FALSE(log_.IsDurable(a));
  IoContext ctx;
  log_.FlushTo(a, ctx);
  EXPECT_TRUE(log_.IsDurable(a));
}

TEST_F(LogManagerTest, FlushChargesLogDeviceSequentially) {
  std::vector<uint8_t> bytes(100, 1);
  for (int i = 0; i < 50; ++i) log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  const Time done = log_.FlushTo(log_.current_lsn(), ctx);
  EXPECT_GT(done, 0);
  EXPECT_EQ(log_.flushes_issued(), 1);  // one group write
  // Writing the same LSN range again is a no-op.
  EXPECT_EQ(log_.FlushTo(log_.current_lsn(), ctx), ctx.now);
  EXPECT_EQ(log_.flushes_issued(), 1);
}

TEST_F(LogManagerTest, CommitForceBlocksClient) {
  std::vector<uint8_t> bytes(100, 1);
  const Lsn lsn = log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  log_.CommitForce(ctx);
  EXPECT_GT(ctx.now, 0);
  EXPECT_TRUE(log_.IsDurable(lsn));
  EXPECT_EQ(log_.retained_records(), 0u);  // the flushed tail left memory
}

TEST_F(LogManagerTest, SecondFlushIsSequentialNotSeek) {
  std::vector<uint8_t> bytes(100, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  const Time first = log_.FlushTo(log_.current_lsn(), ctx);
  log_.AppendUpdate(1, 6, 0, bytes);
  ctx.now = first;
  const Time second_done = log_.FlushTo(log_.current_lsn(), ctx) - first;
  // The first flush pays the positioning cost; the second streams.
  EXPECT_LT(second_done, first / 2);
}

TEST_F(LogManagerTest, DropUnflushedTruncatesTail) {
  std::vector<uint8_t> bytes(10, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  log_.AppendCommit(1);
  IoContext ctx;
  log_.CommitForce(ctx);
  log_.AppendUpdate(1, 6, 0, bytes);
  log_.AppendUpdate(1, 7, 0, bytes);
  EXPECT_EQ(log_.DropUnflushed(), 2u);
  EXPECT_EQ(log_.num_records(), 2);  // update + commit survive
}

TEST_F(LogManagerTest, LoaderModeFlushIsFree) {
  std::vector<uint8_t> bytes(10, 1);
  const Lsn lsn = log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  ctx.charge = false;
  EXPECT_EQ(log_.FlushTo(log_.current_lsn(), ctx), 0);
  EXPECT_EQ(log_.flushes_issued(), 0);
  EXPECT_TRUE(log_.IsDurable(lsn));
}

TEST_F(LogManagerTest, UpdatePayloadPreserved) {
  std::vector<uint8_t> bytes = {9, 8, 7};
  log_.AppendUpdate(3, 55, 123, bytes);
  IoContext ctx;
  log_.CommitForce(ctx);
  const std::vector<LogRecord> records = OnDevice();
  ASSERT_EQ(records.size(), 1u);
  const LogRecord& rec = records.back();
  EXPECT_EQ(rec.txn_id, 3u);
  EXPECT_EQ(rec.page_id, 55u);
  EXPECT_EQ(rec.offset, 123u);
  EXPECT_EQ(rec.bytes, bytes);
  EXPECT_EQ(rec.type, LogRecordType::kUpdate);
}

TEST_F(LogManagerTest, CheckpointRecordTypes) {
  log_.AppendBeginCheckpoint();
  log_.AppendEndCheckpoint();
  IoContext ctx;
  log_.CommitForce(ctx);
  const std::vector<LogRecord> records = OnDevice();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, LogRecordType::kBeginCheckpoint);
  EXPECT_EQ(records[1].type, LogRecordType::kEndCheckpoint);
}

TEST_F(LogManagerTest, RecordChecksumsSealAtAppendAndCatchCorruption) {
  std::vector<uint8_t> bytes = {1, 2, 3, 4};
  log_.AppendUpdate(1, 5, 0, bytes);
  IoContext ctx;
  log_.CommitForce(ctx);
  LogRecord rec = OnDevice().back();
  EXPECT_TRUE(rec.VerifyChecksum());
  rec.bytes[2] = static_cast<uint8_t>(rec.bytes[2] ^ 0x40);
  EXPECT_FALSE(rec.VerifyChecksum());  // body damage
  rec.bytes[2] = static_cast<uint8_t>(rec.bytes[2] ^ 0x40);
  EXPECT_TRUE(rec.VerifyChecksum());
  rec.page_id = 6;
  EXPECT_FALSE(rec.VerifyChecksum());  // header damage
}

TEST_F(LogManagerTest, EachFlushStartsAFreshPageAndRecordsRunAcrossPages) {
  // Records are packed back to back within a flush, so they straddle page
  // boundaries; each flush starts at the next page. The scan sees them all,
  // in LSN order, with continuous LSNs.
  std::vector<uint8_t> bytes(700, 3);
  IoContext ctx;
  std::vector<Lsn> lsns;
  for (int flush = 0; flush < 3; ++flush) {
    for (int i = 0; i < 5; ++i) {
      lsns.push_back(log_.AppendUpdate(1, static_cast<PageId>(i), 0, bytes));
    }
    log_.CommitForce(ctx);
  }
  const std::vector<LogRecord> records = OnDevice();
  ASSERT_EQ(records.size(), lsns.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, lsns[i]);
  }
  // 5 x 736 bytes is 3.6 pages of 1 KiB: each flush fills 4 pages.
  EXPECT_EQ(records[5].device_offset, 4u * 1024);
  EXPECT_EQ(records[10].device_offset, 8u * 1024);
  const LogScan scan = ScanLogDevice(&dev_);
  EXPECT_EQ(scan.first_lsn, 1u);
  EXPECT_EQ(scan.last_lsn, log_.durable_lsn());
  EXPECT_EQ(scan.end_lsn, log_.current_lsn());
  EXPECT_EQ(scan.next_page, 12u);
  EXPECT_FALSE(scan.torn);
}

TEST_F(LogManagerTest, ScanEndsAtTheDurableEnd) {
  std::vector<uint8_t> bytes(10, 1);
  log_.AppendUpdate(1, 5, 0, bytes);
  log_.AppendCommit(1);
  IoContext ctx;
  log_.CommitForce(ctx);
  EXPECT_EQ(ScanLogDevice(&dev_).records, 2);
  // A non-durable append never reached the device; the scan cannot see it,
  // and a crash drops it from memory.
  log_.AppendUpdate(1, 6, 0, bytes);
  EXPECT_EQ(log_.retained_records(), 1u);
  EXPECT_EQ(ScanLogDevice(&dev_).records, 2);
  EXPECT_EQ(log_.DropUnflushed(), 1u);
  EXPECT_EQ(log_.retained_records(), 0u);
  EXPECT_EQ(log_.num_records(), 2);
}

TEST_F(LogManagerTest, ScanStopsAtCorruptRecordAndAppendsResumeThere) {
  std::vector<uint8_t> bytes(10, 1);
  for (int i = 0; i < 4; ++i) log_.AppendUpdate(1, 5 + i, 0, bytes);
  IoContext ctx;
  log_.FlushTo(log_.current_lsn(), ctx);
  // Model a torn log block: record 2's body was only partially written but
  // the device acked the flush, so its stored checksum is stale.
  const std::vector<LogRecord> records = OnDevice();
  ASSERT_EQ(records.size(), 4u);
  const uint64_t at = records[2].device_offset + kLogRecordHeaderBytes;
  std::vector<uint8_t> page(dev_.page_bytes());
  dev_.Read(at / page.size(), 1, page, 0, false);
  page[at % page.size()] ^= 0xFF;
  dev_.Write(at / page.size(), 1, page, 0, false);

  const LogScan scan = ScanLogDevice(&dev_);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records, 2);  // the torn record and its suffix are gone
  EXPECT_EQ(scan.last_lsn, records[1].lsn);
  EXPECT_EQ(scan.end_lsn, records[2].lsn);

  LogManager replay(&dev_);  // a restart reading the log device back
  replay.ResumeFrom(scan);
  EXPECT_EQ(replay.num_records(), 2);
  EXPECT_EQ(replay.durable_lsn(), records[1].lsn);
  // Appends reuse the reclaimed LSN space, and the next flush lands on the
  // next page, so the scan skips the torn bytes and continues there.
  EXPECT_EQ(replay.AppendUpdate(9, 9, 0, bytes), records[2].lsn);
  replay.CommitForce(ctx);
  const std::vector<LogRecord> after = OnDevice();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].page_id, 9u);
  EXPECT_EQ(after[2].device_offset, dev_.page_bytes());
}

TEST_F(LogManagerTest, ResumedLogNeverChainsIntoATornBlocksLeftovers) {
  // Every record fills exactly one 1 KiB page. The second flush writes
  // pages 1-3 and its first record is torn, so pages 2 and 3 keep intact
  // leftovers whose LSNs follow the torn record's.
  const std::vector<uint8_t> page_fill(1024 - kLogRecordHeaderBytes, 7);
  IoContext ctx;
  log_.AppendUpdate(1, 1, 0, page_fill);
  log_.CommitForce(ctx);
  const Lsn torn_lsn = log_.AppendUpdate(1, 2, 0, page_fill);
  log_.AppendUpdate(1, 3, 0, page_fill);
  log_.AppendUpdate(1, 4, 0, page_fill);
  log_.CommitForce(ctx);
  std::vector<uint8_t> page(dev_.page_bytes());
  dev_.Read(1, 1, page, 0, false);
  page[kLogRecordHeaderBytes] ^= 0xFF;
  dev_.Write(1, 1, page, 0, false);

  const LogScan scan = ScanLogDevice(&dev_);
  ASSERT_TRUE(scan.torn);
  ASSERT_EQ(scan.records, 1);
  EXPECT_EQ(scan.next_page, 2u);  // strictly after the durable end
  // The restart reuses the torn record's LSN. Had it resumed at page 1, its
  // one-page record would end exactly where the leftover on page 2 begins,
  // with the very LSN the scan then expects.
  LogManager replay(&dev_);
  replay.ResumeFrom(scan);
  EXPECT_EQ(replay.AppendUpdate(9, 9, 0, page_fill), torn_lsn);
  replay.CommitForce(ctx);
  const std::vector<LogRecord> after = OnDevice();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].page_id, 9u);
  EXPECT_EQ(after[1].device_offset, 2u * dev_.page_bytes());
  EXPECT_FALSE(ScanLogDevice(&dev_).torn);
}

}  // namespace
}  // namespace turbobp
