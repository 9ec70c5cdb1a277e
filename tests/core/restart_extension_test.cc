// The Section-6 future-work extension: the persistent SSD cache keeps a
// crash-consistent metadata journal of the SSD buffer table, and a restart
// (RecoverPersistent) re-attaches the SSD's contents before redo.
// Correctness bar: every restored copy is provably the newest version of
// its page; stale, recycled or damaged frames are dropped; committed
// updates always survive, read back through a cold buffer pool.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/ssd_cache_base.h"
#include "engine/database.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr PageId kUserPages = 256;
constexpr int kPoolFrames = 24;

class RestartExtensionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig config;
    config.page_bytes = kPage;
    config.db_pages = kUserPages;
    config.bp_frames = kPoolFrames;
    config.ssd_frames = 128;
    config.design = SsdDesign::kLazyCleaning;
    config.persistent_ssd_cache = true;
    config.ssd_options.num_partitions = 2;
    config.ssd_options.lc_dirty_fraction = 0.9;
    system_ = std::make_unique<DbSystem>(config);
    db_ = std::make_unique<Database>(system_.get());
  }

  SsdCacheBase& cache() {
    return static_cast<SsdCacheBase&>(system_->ssd_manager());
  }

  // Commits one byte at payload offset `at` of `pid`; returns its LSN.
  Lsn CommittedWrite(PageId pid, uint8_t value, IoContext& ctx,
                     uint32_t at = 0) {
    Lsn lsn = kInvalidLsn;
    {
      PageGuard g =
          system_->buffer_pool().FetchPage(pid, AccessKind::kRandom, ctx);
      g.view().payload()[at] = value;
      lsn = g.LogUpdate(next_txn_++, kPageHeaderSize + at, 1);
    }
    system_->log().CommitForce(ctx);
    shadow_[{pid, at}] = value;
    Settle(ctx);
    return lsn;
  }

  void Settle(IoContext& ctx) {
    system_->executor().RunUntil(ctx.now);
    ctx.now = std::max(ctx.now, system_->executor().now());
  }

  void Churn(int n, IoContext& ctx, Rng& rng) {
    for (int i = 0; i < n; ++i) {
      CommittedWrite(rng.Uniform(kUserPages),
                     static_cast<uint8_t>(rng.Uniform(256)), ctx);
    }
  }

  // Read-only fetches of a pool's worth of pages outside `keep_out`, so
  // every page in `keep_out` is evicted from the buffer pool.
  void EvictAllBut(const std::set<PageId>& keep_out, IoContext& ctx) {
    int fetched = 0;
    for (PageId p = 0; p < kUserPages && fetched < 2 * kPoolFrames; ++p) {
      if (keep_out.contains(p)) continue;
      system_->buffer_pool().FetchPage(p, AccessKind::kRandom, ctx);
      Settle(ctx);
      ++fetched;
    }
  }

  const SsdCacheBase::FrameEntry* FindFrame(
      const std::vector<SsdCacheBase::FrameEntry>& frames, PageId pid) {
    for (const auto& e : frames) {
      if (e.page_id == pid) return &e;
    }
    return nullptr;
  }

  Lsn DiskLsn(PageId pid, IoContext& ctx) {
    std::vector<uint8_t> buf(kPage);
    EXPECT_TRUE(system_->disk_manager().ReadPage(pid, buf, ctx).ok());
    return PageView(buf.data(), kPage).header().lsn;
  }

  // Every committed write must be visible through the (cold) buffer pool
  // after recovery, whether served from disk or a restored SSD copy.
  void VerifyShadowThroughPool(IoContext& ctx) {
    for (const auto& [cell, value] : shadow_) {
      PageGuard g = system_->buffer_pool().FetchPage(cell.first,
                                                     AccessKind::kRandom, ctx);
      ASSERT_EQ(g.view().payload()[cell.second], value)
          << "page " << cell.first << " byte " << cell.second;
    }
  }

  std::unique_ptr<DbSystem> system_;
  std::unique_ptr<Database> db_;
  std::map<std::pair<PageId, uint32_t>, uint8_t> shadow_;
  uint64_t next_txn_ = 1;
};

TEST_F(RestartExtensionTest, RestartRestoresWarmSsdAndStaysCorrect) {
  IoContext ctx = system_->MakeContext();
  Rng rng(5);
  Churn(400, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  Churn(100, ctx, rng);  // post-checkpoint dirty evictions land on the SSD
  system_->Crash();
  IoContext rctx = system_->MakeContext();
  const auto [stats, pstats] = system_->RecoverPersistent(rctx);
  EXPECT_TRUE(pstats.journal_valid);
  EXPECT_GT(pstats.restored, 0u);  // the cache came back warm
  EXPECT_EQ(system_->ssd_manager().stats().used_frames,
            static_cast<int64_t>(pstats.restored));
  // Dirty copies are restored dirty: the SSD still holds the newest
  // version and redo skipped the records those copies cover.
  EXPECT_GT(system_->ssd_manager().stats().dirty_frames, 0);
  EXPECT_GT(stats.records_skipped_ssd, 0);
  VerifyShadowThroughPool(rctx);
  // The cleaner can still drain the restored dirty set to disk.
  IoContext fctx = system_->MakeContext();
  fctx.now = std::max(fctx.now, rctx.now);
  EXPECT_TRUE(system_->ssd_manager().FlushAllDirty(fctx).ok());
  EXPECT_EQ(system_->ssd_manager().stats().dirty_frames, 0);
}

// A warm restart reads the log device twice: one analysis pass gives the
// SSD restore its horizon and per-page LSNs and gives redo its start, and
// redo reads the log once more.
TEST_F(RestartExtensionTest, WarmRestartReadsTheLogDeviceTwice) {
  IoContext ctx = system_->MakeContext();
  Rng rng(9);
  Churn(300, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  Churn(100, ctx, rng);
  system_->Crash();
  const PageImage& log = system_->log_device()->store().image();
  const uint64_t before_scan = log.pages_read();
  const LogScan scan = ScanLogDevice(system_->log_device());
  const uint64_t one_pass = log.pages_read() - before_scan;
  ASSERT_GT(one_pass, 0u);
  ASSERT_GT(scan.records, 0);

  IoContext rctx = system_->MakeContext();
  const uint64_t before_recovery = log.pages_read();
  const auto [stats, pstats] = system_->RecoverPersistent(rctx);
  EXPECT_TRUE(stats.status.ok()) << stats.status.ToString();
  EXPECT_TRUE(pstats.journal_valid);
  EXPECT_EQ(log.pages_read() - before_recovery, 2 * one_pass);
  VerifyShadowThroughPool(rctx);
}

TEST_F(RestartExtensionTest, SupersededEntriesAreDropped) {
  IoContext ctx = system_->MakeContext();
  Rng rng(7);
  Churn(300, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  // A first update to each page after the checkpoint, evicted dirty onto
  // the SSD and journaled: the dirty frames are the only copies of it.
  const std::set<PageId> pages = {3, 64, 129, 200};
  for (PageId p : pages) CommittedWrite(p, static_cast<uint8_t>(p), ctx);
  EvictAllBut(pages, ctx);
  ASSERT_TRUE(cache().journal()->Maintain(ctx, /*force=*/true).ok());
  const std::vector<SsdCacheBase::FrameEntry> journaled = cache().LiveFrames();
  for (PageId p : pages) {
    const auto* e = FindFrame(journaled, p);
    ASSERT_NE(e, nullptr) << "page " << p;
    ASSERT_TRUE(e->dirty) << "page " << p;
  }
  // A second committed update supersedes each journaled frame; the crash
  // comes before the journal learns the frames were invalidated.
  for (PageId p : pages) CommittedWrite(p, static_cast<uint8_t>(~p), ctx);
  system_->Crash();
  IoContext rctx = system_->MakeContext();
  const PersistentRestoreStats pstats = system_->RecoverPersistent(rctx).second;
  // Superseded dirty images seed the disk for redo instead of being
  // attached; no superseded image is served.
  EXPECT_GE(pstats.reseeded, 1u);
  for (const auto& e : cache().LiveFrames()) {
    const auto* old = FindFrame(journaled, e.page_id);
    if (old != nullptr && pages.contains(e.page_id)) {
      EXPECT_NE(e.page_lsn, old->page_lsn) << "page " << e.page_id;
    }
  }
  VerifyShadowThroughPool(rctx);
}

// Regression: a damaged dirty frame must not cost a committed update. After
// the last completed checkpoint, page P is updated at two offsets and
// evicted, so its only current copy is a dirty LC frame and the disk holds
// neither update. The crash damages that frame: restore drops it at
// verification, and redo from the checkpoint must rebuild both updates.
TEST_F(RestartExtensionTest, CorruptedDirtyFrameIsDroppedAndRedoRebuildsIt) {
  IoContext ctx = system_->MakeContext();
  Rng rng(9);
  Churn(300, ctx, rng);
  system_->checkpoint().RunCheckpoint(ctx);
  const PageId p = 77;
  const Lsn first = CommittedWrite(p, 0x11, ctx, /*at=*/0);
  const Lsn second = CommittedWrite(p, 0x22, ctx, /*at=*/1);
  ASSERT_LT(first, second);
  EvictAllBut({p}, ctx);
  ASSERT_TRUE(cache().journal()->Maintain(ctx, /*force=*/true).ok());
  const std::vector<SsdCacheBase::FrameEntry> frames = cache().LiveFrames();
  const auto* e = FindFrame(frames, p);
  ASSERT_NE(e, nullptr);
  ASSERT_TRUE(e->dirty);
  ASSERT_EQ(e->page_lsn, second);
  ASSERT_LT(DiskLsn(p, ctx), first);  // the disk has neither update
  const uint64_t frame = e->frame;

  system_->Crash();
  StorageDevice* dev = system_->ssd_device();
  std::vector<uint8_t> buf(kPage);
  ASSERT_TRUE(dev->Read(frame, 1, buf, /*now=*/0, /*charge=*/false).ok());
  buf[kPageHeaderSize + 100] ^= 0xFF;
  ASSERT_TRUE(dev->Write(frame, 1, buf, /*now=*/0, /*charge=*/false).ok());

  IoContext rctx = system_->MakeContext();
  const PersistentRestoreStats pstats = system_->RecoverPersistent(rctx).second;
  EXPECT_GE(pstats.dropped_verification, 1u);
  {
    PageGuard g =
        system_->buffer_pool().FetchPage(p, AccessKind::kRandom, rctx);
    EXPECT_EQ(g.view().payload()[0], 0x11);
    EXPECT_EQ(g.view().payload()[1], 0x22);
  }
  VerifyShadowThroughPool(rctx);
}

TEST_F(RestartExtensionTest, RestartWithoutAnyCheckpointIsWarmAndCorrect) {
  IoContext ctx = system_->MakeContext();
  Rng rng(11);
  Churn(150, ctx, rng);
  system_->Crash();
  IoContext rctx = system_->MakeContext();
  const PersistentRestoreStats pstats = system_->RecoverPersistent(rctx).second;
  // The journal needs no checkpoint to bring frames back.
  EXPECT_GT(pstats.restored, 0u);
  VerifyShadowThroughPool(rctx);
}

}  // namespace
}  // namespace turbobp
