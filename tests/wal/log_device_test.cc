// Recovery from what the log device holds.
//
//  * TornLastFlushStopsReplayAtTheFirstDamagedRecord: a FaultInjectingDevice
//    tears the log's last flush. Replay applies the intact records that
//    precede the tear in the same block and nothing from the damaged record
//    on.
//  * A small log device wraps. A wrap that only overwrote records below the
//    last completed checkpoint recovers exactly; a wrap over the redo start
//    fails with kCorruption and replays nothing.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "engine/database.h"
#include "fault/fault_injecting_device.h"
#include "storage/disk_manager.h"
#include "storage/mem_device.h"
#include "storage/page.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;

uint8_t PayloadByte(StorageDevice& dev, PageId pid) {
  std::vector<uint8_t> buf(kPage);
  dev.Read(pid, 1, buf, 0, /*charge=*/false);
  return buf[kPageHeaderSize];
}

TEST(LogDeviceTest, TornLastFlushStopsReplayAtTheFirstDamagedRecord) {
  MemDevice data(64, kPage);
  MemDevice log_medium(64, kPage);
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTornWrite;  // the second log write
  FaultInjectingDevice log_dev(&log_medium, plan);

  // Each update writes one byte at the start of a distinct page's payload.
  const std::vector<uint8_t> value(30, 0x5A);
  std::vector<Lsn> lsns;
  {
    LogManager log(&log_dev);
    IoContext ctx;
    lsns.push_back(log.AppendUpdate(1, 1, kPageHeaderSize, value));
    lsns.push_back(log.AppendUpdate(1, 2, kPageHeaderSize, value));
    log.CommitForce(ctx);  // write 0: lands whole
    // Six 66-byte records fill 396 bytes of one page. The torn single-page
    // write lands its first 256 bytes: records 0-2 whole, record 3 cut.
    for (PageId pid = 10; pid < 16; ++pid) {
      lsns.push_back(log.AppendUpdate(2, pid, kPageHeaderSize, value));
    }
    log.CommitForce(ctx);  // write 1: torn, but acknowledged
    ASSERT_EQ(log_dev.fault_stats().torn_writes, 1);
    EXPECT_EQ(log.durable_lsn(), lsns.back());  // the log believes it landed
  }

  // Restart over the surviving media.
  DiskManager disk(&data);
  LogManager log(&log_dev);
  RecoveryManager recovery(&disk, &log);
  IoContext ctx;
  const RecoveryStats stats = recovery.Recover(ctx);
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_TRUE(stats.torn_tail);
  // Two records from the first block, three from the torn one.
  EXPECT_EQ(stats.records_applied, 5);
  for (PageId pid : {1, 2, 10, 11, 12}) {
    EXPECT_EQ(PayloadByte(data, pid), 0x5A) << "page " << pid;
  }
  for (PageId pid : {13, 14, 15}) {
    EXPECT_EQ(PayloadByte(data, pid), 0) << "page " << pid;
  }
  // The durable log ends right before the damaged record, and appends
  // resume at its LSN.
  EXPECT_EQ(log.durable_lsn(), lsns[4]);
  EXPECT_EQ(log.current_lsn(), lsns[5]);
}

// A small system whose log device holds only kLogPages pages. Every commit
// forces one page-sized flush, so a few dozen commits wrap the log.
class LogWrapTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLogPages = 32;

  LogWrapTest() {
    SystemConfig config;
    config.page_bytes = kPage;
    config.db_pages = 64;
    config.bp_frames = 16;
    config.design = SsdDesign::kNoSsd;
    config.log_device_pages = kLogPages;
    system_ = std::make_unique<DbSystem>(config);
    db_ = std::make_unique<Database>(system_.get());
    ctx_ = system_->MakeContext();
  }

  // One committed transaction: `value` into the first payload byte of pid.
  void Commit(PageId pid, uint8_t value) {
    {
      PageGuard g =
          system_->buffer_pool().FetchPage(pid, AccessKind::kRandom, ctx_);
      g.view().payload()[0] = value;
      g.LogUpdate(txn_, kPageHeaderSize, 1);
    }
    system_->log().AppendCommit(txn_++);
    system_->log().CommitForce(ctx_);
    system_->executor().RunUntil(ctx_.now);
    oracle_[pid] = value;
  }

  void CommitMany(int n) {
    for (int i = 0; i < n; ++i) {
      Commit(10 + static_cast<PageId>(i % 8), static_cast<uint8_t>(++value_));
    }
  }

  void Checkpoint() {
    ctx_.now = std::max(ctx_.now, system_->checkpoint().RunCheckpoint(ctx_));
    system_->executor().RunUntil(ctx_.now);
  }

  RecoveryStats CrashAndRecover() {
    system_->Crash();
    IoContext rctx = system_->MakeContext(/*charge=*/false);
    return system_->Recover(rctx);
  }

  std::unique_ptr<DbSystem> system_;
  std::unique_ptr<Database> db_;
  IoContext ctx_;
  uint64_t txn_ = 1;
  int value_ = 0;
  std::map<PageId, uint8_t> oracle_;
};

TEST_F(LogWrapTest, WrapBelowTheLastCheckpointRecovers) {
  CommitMany(40);  // 40 one-page flushes: the log wraps once
  Checkpoint();
  CommitMany(5);
  const LogScan scan = ScanLogDevice(system_->log_device());
  ASSERT_GT(scan.first_lsn, 1u) << "the log did not wrap";
  ASSERT_LT(scan.first_lsn, system_->checkpoint().stats().last_checkpoint_lsn);

  const RecoveryStats stats = CrashAndRecover();
  ASSERT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_EQ(stats.redo_start_lsn,
            system_->checkpoint().stats().last_checkpoint_lsn);
  EXPECT_EQ(stats.records_scanned, 5);
  for (const auto& [pid, value] : oracle_) {
    EXPECT_EQ(PayloadByte(*system_->disk_manager().device(), pid), value)
        << "page " << pid;
  }
  // Appends resume after the recovered end, and a later restart still finds
  // the whole log from the checkpoint on.
  CommitMany(3);
  const RecoveryStats again = CrashAndRecover();
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_EQ(again.records_scanned, 8);
}

TEST_F(LogWrapTest, WrapOverTheRedoStartFailsLoudly) {
  Checkpoint();
  CommitMany(40);  // wraps over the checkpoint's records and LSN 1
  ASSERT_GT(ScanLogDevice(system_->log_device()).first_lsn,
            system_->checkpoint().stats().last_checkpoint_lsn);

  const RecoveryStats stats = CrashAndRecover();
  EXPECT_TRUE(stats.status.IsCorruption()) << stats.status.ToString();
  EXPECT_EQ(stats.records_scanned, 0);
  EXPECT_EQ(stats.records_applied, 0);
}

}  // namespace
}  // namespace turbobp
