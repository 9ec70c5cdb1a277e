#include "engine/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace turbobp {
namespace {

SystemConfig SmallConfig(SsdDesign design) {
  SystemConfig config;
  config.page_bytes = 1024;
  config.db_pages = 4096;
  config.bp_frames = 32;
  config.ssd_frames = 128;
  config.design = design;
  config.ssd_options.num_partitions = 2;
  return config;
}

TEST(DbSystemTest, WiresTheDesignRequested) {
  for (SsdDesign d :
       {SsdDesign::kNoSsd, SsdDesign::kCleanWrite, SsdDesign::kDualWrite,
        SsdDesign::kLazyCleaning, SsdDesign::kTac}) {
    DbSystem system(SmallConfig(d));
    EXPECT_EQ(system.ssd_manager().design(), d) << ToString(d);
    if (d == SsdDesign::kNoSsd) {
      EXPECT_EQ(system.ssd_device(), nullptr);
    } else {
      ASSERT_NE(system.ssd_device(), nullptr);
      EXPECT_GE(system.ssd_device()->num_pages(), 128u);
    }
  }
}

TEST(DbSystemTest, PageSizePropagatesToAllComponents) {
  DbSystem system(SmallConfig(SsdDesign::kDualWrite));
  EXPECT_EQ(system.buffer_pool().page_bytes(), 1024u);
  EXPECT_EQ(system.disk_manager().page_bytes(), 1024u);
  EXPECT_EQ(system.ssd_device()->page_bytes(), 1024u);
}

TEST(DbSystemTest, MakeContextTracksExecutor) {
  DbSystem system(SmallConfig(SsdDesign::kNoSsd));
  system.executor().ScheduleAt(Seconds(5), [] {});
  system.executor().RunUntilIdle();
  IoContext ctx = system.MakeContext();
  EXPECT_EQ(ctx.now, Seconds(5));
  EXPECT_EQ(ctx.executor, &system.executor());
  EXPECT_TRUE(ctx.charge);
  EXPECT_FALSE(system.MakeContext(false).charge);
}

TEST(DbSystemTest, CrashResetsVolatileStateOnly) {
  DbSystem system(SmallConfig(SsdDesign::kLazyCleaning));
  Database db(&system);
  IoContext ctx = system.MakeContext();
  {
    PageGuard g = system.buffer_pool().FetchPage(3, AccessKind::kRandom, ctx);
    g.view().payload()[0] = 1;
    g.LogUpdate(1, kPageHeaderSize, 1);
  }
  system.Crash();
  EXPECT_EQ(system.buffer_pool().UsedFrameCount(), 0);
  // The SSD manager was rebuilt (restart reformats the SSD buffer pool).
  EXPECT_EQ(system.ssd_manager().stats().used_frames, 0);
  EXPECT_EQ(system.buffer_pool().ssd_manager(), &system.ssd_manager());
}

TEST(DatabaseTest, AllocatePagesIsContiguousBumpAllocation) {
  DbSystem system(SmallConfig(SsdDesign::kNoSsd));
  Database db(&system);
  const PageId a = db.AllocatePages(10);
  const PageId b = db.AllocatePages(5);
  EXPECT_EQ(b, a + 10);
  EXPECT_GE(a, 1u);  // page 0 reserved
}

TEST(DatabaseDeathTest, AllocationBeyondVolumePanics) {
  DbSystem system(SmallConfig(SsdDesign::kNoSsd));
  Database db(&system);
  EXPECT_DEATH(db.AllocatePages(1 << 20), "");
}

// Two threads splitting different B+-trees hold different index latches,
// so nothing but AllocatePages itself stands between them: every extent it
// hands out must be disjoint from every other, or two trees share a page.
TEST(DatabaseTest, ConcurrentAllocationsNeverOverlap) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  SystemConfig config = SmallConfig(SsdDesign::kNoSsd);
  config.db_pages = 1 + 2ull * kThreads * kPerThread;
  DbSystem system(config);
  Database db(&system);

  std::atomic<bool> go{false};
  std::vector<std::vector<std::pair<PageId, uint64_t>>> extents(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        const uint64_t n = 1 + static_cast<uint64_t>((t + i) % 2);
        extents[t].emplace_back(db.AllocatePages(n), n);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  std::vector<uint8_t> owner(config.db_pages, 0);
  uint64_t allocated = 0;
  int64_t overlaps = 0;
  for (const auto& list : extents) {
    for (const auto& [first, n] : list) {
      for (uint64_t p = first; p < first + n; ++p) {
        ASSERT_LT(p, config.db_pages);
        overlaps += owner[p]++ != 0 ? 1 : 0;
      }
      allocated += n;
    }
  }
  EXPECT_EQ(overlaps, 0) << "pages handed out twice";
  EXPECT_EQ(owner[0], 0) << "page 0 is reserved";
  EXPECT_EQ(db.catalog().next_free_page, 1 + allocated);
}

TEST(DatabaseTest, CatalogSnapshotRestoreRoundTrip) {
  DbSystem system(SmallConfig(SsdDesign::kNoSsd));
  Database db(&system);
  db.AllocatePages(7);
  TableInfo t;
  t.name = "x";
  t.first_page = 1;
  t.num_pages = 7;
  t.row_bytes = 10;
  db.catalog().tables["x"] = t;
  const Catalog snapshot = db.catalog();

  Database db2(&system);
  db2.RestoreCatalog(snapshot);
  EXPECT_EQ(db2.catalog().next_free_page, snapshot.next_free_page);
  EXPECT_TRUE(db2.catalog().tables.contains("x"));
}

}  // namespace
}  // namespace turbobp
