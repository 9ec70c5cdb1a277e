// Disk-write retry discipline of the async I/O engine (DESIGN.md §12).
// When the buffer pool's checkpoint drain (FlushAllDirty) or LC group
// cleaning hits a transient disk EIO, the engine retries THAT request — it
// must not re-drain the whole dirty set or re-write the cleaned group, and
// no page may be written more than the engine's retry limit per drain. A
// coalesced batch that fails is split so the flaky page's neighbours are
// re-issued once, solo, not re-retried alongside it.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "buffer/buffer_pool.h"
#include "core/lazy_cleaning.h"
#include "fault/fault_injecting_device.h"
#include "fault/fault_plan.h"
#include "io/async_io_engine.h"
#include "sim/sim_executor.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr int kRetryLimit = 3;

// Decorator counting device-level write attempts per page, including
// attempts the fault layer below will fail: what the retry-bound contract
// limits is wear (issues), not successes.
class WriteCountingDevice : public StorageDevice {
 public:
  explicit WriteCountingDevice(StorageDevice* base) : base_(base) {}

  uint64_t num_pages() const override { return base_->num_pages(); }
  uint32_t page_bytes() const override { return base_->page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge) override {
    return base_->Read(first_page, num_pages, out, now, charge);
  }

  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge) override {
    for (uint32_t i = 0; i < num_pages; ++i) ++writes_[first_page + i];
    return base_->Write(first_page, num_pages, data, now, charge);
  }

  int QueueLength(Time now) override { return base_->QueueLength(now); }
  Time EstimateReadTime(AccessKind kind) const override {
    return base_->EstimateReadTime(kind);
  }

  const std::map<uint64_t, int>& writes() const { return writes_; }

 private:
  StorageDevice* base_;
  std::map<uint64_t, int> writes_;
};

// The disk stack shared by both fixtures: DiskManager (and the engine it
// owns) -> counter -> fault -> disk. Every charged disk op, synchronous or
// engine-issued, advances the fault device's op index.
class DiskStack {
 protected:
  void BuildDisk(const FaultPlan& plan, int queue_depth) {
    disk_dev_ = std::make_unique<SimDevice>(
        256, kPage, std::make_unique<HddModel>(HddParams{.page_bytes = kPage}));
    disk_dev_->store().SetSynthesizer(
        [](uint64_t page, std::span<uint8_t> out) {
          PageView v(out.data(), kPage);
          v.Format(page, PageType::kRaw);
          v.SealChecksum();
        });
    fault_ = std::make_unique<FaultInjectingDevice>(disk_dev_.get(), plan);
    counter_ = std::make_unique<WriteCountingDevice>(fault_.get());
    disk_ = std::make_unique<DiskManager>(
        counter_.get(), AsyncIoEngine::Options{.queue_depth = queue_depth,
                                               .retry_limit = kRetryLimit});
  }

  std::unique_ptr<SimDevice> disk_dev_;
  std::unique_ptr<FaultInjectingDevice> fault_;
  std::unique_ptr<WriteCountingDevice> counter_;
  std::unique_ptr<DiskManager> disk_;
};

class FlushRetryTest : public ::testing::Test, protected DiskStack {
 protected:
  void Build(const FaultPlan& plan) {
    BuildDisk(plan, /*queue_depth=*/4);  // drain window = 8 pages
    log_dev_ = std::make_unique<SimDevice>(1 << 10, kPage,
                                           std::make_unique<HddModel>());
    log_ = std::make_unique<LogManager>(log_dev_.get());
    BufferPool::Options opts;
    opts.num_frames = 16;
    opts.page_bytes = kPage;
    pool_ = std::make_unique<BufferPool>(opts, disk_.get(), log_.get(),
                                         nullptr);
  }

  // Dirties pages [0, 8). The cold pool expands the first miss into one
  // aligned 8-page read (fault op 0), so the other seven fetches hit and
  // the drain's writes start at fault op 1.
  void DirtyEightPages(uint8_t base, IoContext& ctx) {
    for (PageId p = 0; p < 8; ++p) {
      PageGuard g = pool_->FetchPage(p, AccessKind::kRandom, ctx);
      g.view().payload()[0] = static_cast<uint8_t>(base + p);
      g.LogUpdate(1, kPageHeaderSize, 1);
    }
    ASSERT_EQ(fault_->fault_stats().ops, 1);
  }

  std::unique_ptr<SimDevice> log_dev_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(FlushRetryTest, TransientEioRetriesThePageNotTheDrain) {
  // Eight contiguous dirty pages drain as: four solo writes (they fill the
  // depth-4 ring before anything stages) then one coalesced batch [4..7].
  // Fault ops: 0 the expanded read, 1..4 the solo writes, 5 the batch.
  // Fail the batch (op 5) and then the first split re-issue (op 6, page 4):
  //
  //   page 4:    batch + solo retry + solo retry = 3 writes (= retry limit)
  //   pages 5-7: batch + one solo re-issue       = 2 writes
  //   pages 0-3: untouched by the failure        = 1 write
  FaultPlan plan;
  plan.scripted[5] = FaultKind::kTransientError;
  plan.scripted[6] = FaultKind::kTransientError;
  Build(plan);

  IoContext ctx;
  DirtyEightPages(0x50, ctx);
  ASSERT_EQ(pool_->DirtyFrameCount(), 8);

  const Time done = pool_->FlushAllDirty(ctx, /*for_checkpoint=*/false);
  EXPECT_GT(done, ctx.now - 1);

  // Both scripted faults fired (guards the op-index bookkeeping above).
  ASSERT_EQ(fault_->fault_stats().transient_errors, 2);

  int max_writes = 0;
  int once = 0, twice = 0, thrice = 0;
  for (const auto& [pid, n] : counter_->writes()) {
    max_writes = std::max(max_writes, n);
    if (n == 1) ++once;
    if (n == 2) ++twice;
    if (n == 3) ++thrice;
  }
  // The hard bound: no page is ever written more than retry_limit times in
  // one drain, no matter how the faults land.
  EXPECT_LE(max_writes, kRetryLimit);
  // The shape: one flaky page re-retried, its three batch neighbours
  // re-issued exactly once, the other four untouched by the failure.
  EXPECT_EQ(thrice, 1);
  EXPECT_EQ(twice, 3);
  EXPECT_EQ(once, 4);

  const AsyncIoEngine::Stats s = disk_->engine().stats();
  EXPECT_EQ(s.retries, 5);  // 4 split re-issues + 1 solo retry
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(s.completed, 8);

  // The drain succeeded: every frame is clean and every page's bytes are on
  // the disk despite the flaky run.
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
  std::vector<uint8_t> out(kPage);
  for (PageId p = 0; p < 8; ++p) {
    disk_dev_->store().Read(p, 1, out, 0);
    PageView v(out.data(), kPage);
    EXPECT_EQ(v.header().page_id, p);
    EXPECT_EQ(v.payload()[0], static_cast<uint8_t>(0x50 + p)) << "page " << p;
  }
}

TEST_F(FlushRetryTest, HealthyDrainWritesEveryPageExactlyOnce) {
  Build(FaultPlan::Healthy());
  IoContext ctx;
  DirtyEightPages(0x70, ctx);
  pool_->FlushAllDirty(ctx, /*for_checkpoint=*/false);
  EXPECT_EQ(pool_->DirtyFrameCount(), 0);
  ASSERT_EQ(counter_->writes().size(), 8u);
  for (const auto& [pid, n] : counter_->writes()) {
    EXPECT_EQ(n, 1) << "page " << pid;
  }
  EXPECT_EQ(disk_->engine().stats().retries, 0);
}

// LC group cleaning (Section 3.3.5) copies a group of consecutive dirty SSD
// pages to the disk. A transient EIO on one page's write must retry that
// page alone: its group neighbours are already durable and are written
// exactly once.
class LcCleanRetryTest : public ::testing::Test, protected DiskStack {
 protected:
  void Build(const FaultPlan& plan) {
    BuildDisk(plan, /*queue_depth=*/32);
    executor_ = std::make_unique<SimExecutor>();
    ssd_dev_ = std::make_unique<SimDevice>(64, kPage,
                                           std::make_unique<SsdModel>());
    SsdCacheOptions opts;
    opts.num_frames = 16;
    opts.num_partitions = 1;
    opts.aggressive_fill = 1.0;
    opts.lc_dirty_fraction = 0.25;  // high watermark: 4 dirty frames
    opts.lc_group_pages = 4;
    cache_ = std::make_unique<LazyCleaningCache>(ssd_dev_.get(), disk_.get(),
                                                 opts, executor_.get());
  }

  // Evicts pages [100, 105) dirty to the SSD: the fifth crosses the high
  // watermark and wakes the cleaner, which cleans the group [100, 104) and
  // goes back to sleep at 1 dirty frame.
  void EvictFiveDirtyPagesAndClean() {
    for (PageId p = 100; p < 105; ++p) {
      std::vector<uint8_t> page(kPage);
      PageView v(page.data(), kPage);
      v.Format(p, PageType::kRaw);
      v.payload()[0] = static_cast<uint8_t>(p);
      v.SealChecksum();
      IoContext ctx;
      ctx.now = executor_->now();
      ctx.executor = executor_.get();
      ASSERT_TRUE(cache_->OnEvictDirty(p, page, AccessKind::kRandom, 1, ctx)
                      .cached_on_ssd);
    }
    executor_->RunUntilIdle();
  }

  std::unique_ptr<SimExecutor> executor_;
  std::unique_ptr<SimDevice> ssd_dev_;
  std::unique_ptr<LazyCleaningCache> cache_;
};

TEST_F(LcCleanRetryTest, TransientEioRetriesThePageNotTheGroup) {
  // The cleaner submits one write per group page; with a depth-32 ring each
  // issues solo, in page order, at fault ops 0..3. Fail op 1 (page 101).
  FaultPlan plan;
  plan.scripted[1] = FaultKind::kTransientError;
  Build(plan);
  EvictFiveDirtyPagesAndClean();
  ASSERT_EQ(fault_->fault_stats().transient_errors, 1);

  const std::map<uint64_t, int> expected = {
      {100, 1}, {101, 2}, {102, 1}, {103, 1}};
  EXPECT_EQ(counter_->writes(), expected);
  const AsyncIoEngine::Stats s = disk_->engine().stats();
  EXPECT_EQ(s.submitted, 4);
  EXPECT_EQ(s.retries, 1);
  EXPECT_EQ(s.errors, 0);

  // The group was cleaned as one cleaner request, and every page's bytes
  // reached the disk despite the flaky write.
  const SsdManagerStats cs = cache_->stats();
  EXPECT_EQ(cs.cleaner_disk_writes, 4);
  EXPECT_EQ(cs.cleaner_io_requests, 1);
  EXPECT_EQ(cs.dirty_frames, 1);
  std::vector<uint8_t> out(kPage);
  for (PageId p = 100; p < 104; ++p) {
    EXPECT_EQ(cache_->Probe(p), SsdProbe::kCleanCopy) << "page " << p;
    disk_dev_->store().Read(p, 1, out, 0);
    PageView v(out.data(), kPage);
    EXPECT_EQ(v.header().page_id, p);
    EXPECT_EQ(v.payload()[0], static_cast<uint8_t>(p)) << "page " << p;
  }
  EXPECT_EQ(cache_->Probe(104), SsdProbe::kNewerCopy);
}

}  // namespace
}  // namespace turbobp
