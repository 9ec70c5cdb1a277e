// Consistent stats snapshots under concurrency (the torn-snapshot bugfix).
//
// Before the fix, stats() loaded each relaxed counter independently, so a
// snapshot taken while clients classify accesses could observe an `ops`-style
// total that disagreed with the sum of its parts (hits + misses != anything
// meaningful). The fix orders every classification as
//     classification counter (relaxed)  ->  ops (release)
// and snapshot reads ops FIRST (acquire), so each snapshot satisfies
//     hits + misses >= ops          (pool)
//     hits + probe_misses >= ops    (SSD cache)
// in every interleaving, with equality at quiescence. These tests hammer the
// structures from multiple threads while a dedicated thread snapshots in a
// loop and asserts the invariant on every sample. Runs under TSan in CI.
// Two more walk each layer's counter list: every entry reaches stats(), and
// the pool's ResetStats() zeroes every entry.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/rng.h"
#include "core/dual_write.h"
#include "debug/invariant_auditor.h"
#include "storage/mem_device.h"
#include "storage/page.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 512;
constexpr PageId kPages = 256;

TEST(StatsSnapshotTest, BufferPoolSnapshotsNeverTear) {
  MemDevice disk_dev(kPages, kPage);
  disk_dev.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), kPage);
    v.Format(page, PageType::kRaw);
    v.SealChecksum();
  });
  MemDevice log_dev(1 << 12, kPage);
  DiskManager disk(&disk_dev);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 32;  // tiny: constant miss/evict churn
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 15000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> snapshots_checked{0};

  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const BufferPoolStats s = pool.stats();
      // The release/acquire protocol: all classifications of the sealed ops
      // are visible, possibly more (an op classifies before it counts).
      ASSERT_GE(s.hits + s.misses, s.ops)
          << "torn snapshot: hits=" << s.hits << " misses=" << s.misses
          << " ops=" << s.ops;
      snapshots_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(7000 + static_cast<uint64_t>(t));
      IoContext ctx;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PageId pid = rng.Uniform(kPages);
        PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, ctx);
        volatile uint8_t sink = g.view().payload()[0];
        (void)sink;
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_GT(snapshots_checked.load(), 0);
  // Quiescent: the books balance exactly.
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.ops, static_cast<int64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(s.hits + s.misses, s.ops);
}

TEST(StatsSnapshotTest, SsdCacheSnapshotsNeverTear) {
  MemDevice disk_dev(kPages, kPage);
  disk_dev.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), kPage);
    v.Format(page, PageType::kRaw);
    v.SealChecksum();
  });
  MemDevice ssd_dev(64, kPage);
  DiskManager disk(&disk_dev);
  SsdCacheOptions sopts;
  sopts.num_frames = 64;
  sopts.num_partitions = 4;
  DualWriteCache ssd(&ssd_dev, &disk, sopts, nullptr);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 10000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> snapshots_checked{0};

  std::thread observer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const SsdManagerStats s = ssd.stats();
      ASSERT_GE(s.hits + s.probe_misses, s.ops)
          << "torn snapshot: hits=" << s.hits
          << " probe_misses=" << s.probe_misses << " ops=" << s.ops;
      snapshots_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(9000 + static_cast<uint64_t>(t));
      IoContext ctx;
      std::vector<uint8_t> page(kPage);
      std::vector<uint8_t> out(kPage);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PageId pid = rng.Uniform(128);
        if (rng.Bernoulli(0.4)) {
          PageView v(page.data(), kPage);
          v.Format(pid, PageType::kRaw);
          v.SealChecksum();
          ssd.OnEvictClean(pid, page, AccessKind::kRandom, ctx);
        } else {
          (void)ssd.TryReadPage(pid, out, ctx);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  stop.store(true, std::memory_order_release);
  observer.join();

  EXPECT_GT(snapshots_checked.load(), 0);
  // Quiescent reconciliation: every probe classified as hit or miss.
  const SsdManagerStats s = ssd.stats();
  EXPECT_EQ(s.hits + s.probe_misses, s.ops);
}

// Bumps entry k of `live`'s list by k and returns how many entries it has.
template <typename Live>
int BumpEachByItsPosition(Live& live) {
  int k = 0;
  Live::ForEach([&](const char*, LiveCounter& c) { Bump(c, ++k); }, live);
  return k;
}

// Expects entry k of `stats`' list to read k (or 0 when `zero`), and that
// the list has `entries` entries.
template <typename Stats>
void ExpectEachAtItsPosition(const Stats& stats, int entries, bool zero) {
  int k = 0;
  Stats::ForEach(
      [&](const char* name, int64_t got) {
        ++k;
        EXPECT_EQ(got, zero ? 0 : k) << name;
      },
      stats);
  EXPECT_EQ(k, entries);
}

TEST(StatsSnapshotTest, EveryPoolCounterIsSnapshottedAndReset) {
  MemDevice disk_dev(kPages, kPage);
  MemDevice log_dev(1 << 12, kPage);
  DiskManager disk(&disk_dev);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 32;
  opts.page_bytes = kPage;
  BufferPool pool(opts, &disk, &log, nullptr);

  const int entries = BumpEachByItsPosition(AuditAccess::Counters(pool));
  ASSERT_GT(entries, 3);
  const BufferPoolStats bumped = pool.stats();
  ExpectEachAtItsPosition(bumped, entries, /*zero=*/false);
  EXPECT_EQ(bumped.ops, 1);  // the list leads with ops, as the protocol needs

  pool.ResetStats();
  const BufferPoolStats reset = pool.stats();
  ExpectEachAtItsPosition(reset, entries, /*zero=*/true);
}

TEST(StatsSnapshotTest, EverySsdCounterIsSnapshotted) {
  MemDevice disk_dev(kPages, kPage);
  MemDevice ssd_dev(64, kPage);
  DiskManager disk(&disk_dev);
  SsdCacheOptions sopts;
  sopts.num_frames = 64;
  sopts.num_partitions = 4;
  DualWriteCache ssd(&ssd_dev, &disk, sopts, nullptr);

  const int entries = BumpEachByItsPosition(AuditAccess::Counters(ssd));
  ASSERT_GT(entries, 3);
  const SsdManagerStats bumped = ssd.stats();
  ExpectEachAtItsPosition(bumped, entries, /*zero=*/false);
  EXPECT_EQ(bumped.ops, 1);
  EXPECT_EQ(bumped.capacity_frames, 64);  // gauges still come from the cache
}

}  // namespace
}  // namespace turbobp
