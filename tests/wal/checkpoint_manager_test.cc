// CheckpointManager unit behaviour: periodic scheduling, duration
// accounting, interaction with the SSD designs' checkpoint hooks.

#include "wal/checkpoint.h"

#include <gtest/gtest.h>

#include <memory>

#include "engine/database.h"

namespace turbobp {
namespace {

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void Build(SsdDesign design) {
    SystemConfig config;
    config.page_bytes = 512;
    config.db_pages = 1024;
    config.bp_frames = 64;
    config.ssd_frames = 256;
    config.design = design;
    config.ssd_options.num_partitions = 2;
    config.ssd_options.lc_dirty_fraction = 0.9;
    system_ = std::make_unique<DbSystem>(config);
    db_ = std::make_unique<Database>(system_.get());
  }

  void DirtySomePages(int n, IoContext& ctx) {
    for (int i = 0; i < n; ++i) {
      PageGuard g = system_->buffer_pool().FetchPage(
          static_cast<PageId>(i), AccessKind::kRandom, ctx);
      g.view().payload()[0]++;
      g.LogUpdate(1, kPageHeaderSize, 1);
    }
  }

  std::unique_ptr<DbSystem> system_;
  std::unique_ptr<Database> db_;
};

TEST_F(CheckpointManagerTest, CheckpointFlushesAndLogs) {
  Build(SsdDesign::kNoSsd);
  IoContext ctx = system_->MakeContext();
  DirtySomePages(10, ctx);
  const Time end = system_->checkpoint().RunCheckpoint(ctx);
  EXPECT_GT(end, ctx.now);
  EXPECT_EQ(system_->buffer_pool().DirtyFrameCount(), 0);
  const auto& stats = system_->checkpoint().stats();
  EXPECT_EQ(stats.checkpoints_taken, 1);
  EXPECT_EQ(stats.pages_flushed_memory, 10);
  EXPECT_GT(stats.max_duration, 0);
  // Begin + end checkpoint records are on the log device, and the end
  // record is the last durable one.
  int begins = 0, ends = 0;
  LogRecordType last_type = LogRecordType::kUpdate;
  const LogScan scan =
      ScanLogDevice(system_->log_device(), [&](const LogRecord& r) {
        begins += r.type == LogRecordType::kBeginCheckpoint;
        ends += r.type == LogRecordType::kEndCheckpoint;
        last_type = r.type;
      });
  EXPECT_EQ(begins, 1);
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(last_type, LogRecordType::kEndCheckpoint);
  EXPECT_EQ(scan.last_lsn, system_->log().durable_lsn());
}

TEST_F(CheckpointManagerTest, EmptyCheckpointIsCheap) {
  Build(SsdDesign::kNoSsd);
  IoContext ctx = system_->MakeContext();
  const Time end = system_->checkpoint().RunCheckpoint(ctx);
  // Only the log force costs anything.
  EXPECT_LT(end - ctx.now, Millis(50));
  EXPECT_EQ(system_->checkpoint().stats().pages_flushed_memory, 0);
}

TEST_F(CheckpointManagerTest, PeriodicCheckpointsFireAndStop) {
  Build(SsdDesign::kNoSsd);
  system_->checkpoint().SchedulePeriodic(Seconds(5));
  IoContext ctx = system_->MakeContext();
  DirtySomePages(5, ctx);
  system_->executor().RunUntil(Seconds(21));
  EXPECT_GE(system_->checkpoint().stats().checkpoints_taken, 3);
  system_->checkpoint().StopPeriodic();
  const int64_t taken = system_->checkpoint().stats().checkpoints_taken;
  system_->executor().RunUntilIdle();
  EXPECT_LE(system_->checkpoint().stats().checkpoints_taken, taken + 1);
}

TEST_F(CheckpointManagerTest, LcCheckpointDrainsSsdDirtyPages) {
  Build(SsdDesign::kLazyCleaning);
  IoContext ctx = system_->MakeContext();
  DirtySomePages(30, ctx);
  // Evict the dirty pages into the SSD by touching other pages.
  for (PageId p = 200; p < 280; ++p) {
    system_->buffer_pool().FetchPage(p, AccessKind::kRandom, ctx);
  }
  system_->executor().RunUntil(ctx.now);
  ctx.now = std::max(ctx.now, system_->executor().now());
  const int64_t ssd_dirty = system_->ssd_manager().stats().dirty_frames;
  ASSERT_GT(ssd_dirty, 0);
  system_->checkpoint().RunCheckpoint(ctx);
  EXPECT_EQ(system_->ssd_manager().stats().dirty_frames, 0);
  EXPECT_GE(system_->checkpoint().stats().pages_flushed_ssd, ssd_dirty);
}

TEST_F(CheckpointManagerTest, CompletedListGrowsPerCheckpoint) {
  Build(SsdDesign::kNoSsd);
  IoContext ctx = system_->MakeContext();
  system_->checkpoint().RunCheckpoint(ctx);
  ctx.now = std::max(ctx.now, system_->executor().now());
  system_->checkpoint().RunCheckpoint(ctx);
  ASSERT_EQ(system_->checkpoint().completed().size(), 2u);
  EXPECT_LT(system_->checkpoint().completed()[0],
            system_->checkpoint().completed()[1]);
}

}  // namespace
}  // namespace turbobp
