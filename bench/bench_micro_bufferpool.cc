// Micro-benchmarks for the buffer pool's fetch paths: in-memory hit,
// SSD-served miss, and disk-served miss with eviction — the three rungs of
// the paper's storage hierarchy — measured in host CPU time per operation
// (device *virtual* time is free here; this isolates manager overhead).
// BM_Crc32cPage times the page checksum those paths run on every move.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "core/dual_write.h"
#include "sim/sim_executor.h"
#include "storage/page.h"
#include "storage/sim_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 1024;

struct Fixture {
  Fixture(uint64_t frames, int64_t ssd_frames)
      : disk_dev(1 << 16, kPage, std::make_unique<HddModel>()),
        ssd_dev(std::max<int64_t>(ssd_frames, 1), kPage,
                std::make_unique<SsdModel>()),
        log_dev(1 << 14, kPage, std::make_unique<HddModel>()),
        disk(&disk_dev),
        log(&log_dev) {
    disk_dev.store().SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
      PageView v(out.data(), kPage);
      v.Format(page, PageType::kRaw);
      v.SealChecksum();
    });
    if (ssd_frames > 0) {
      SsdCacheOptions opts;
      opts.num_frames = ssd_frames;
      opts.num_partitions = 16;
      ssd = std::make_unique<DualWriteCache>(&ssd_dev, &disk, opts, &executor);
    }
    BufferPool::Options opts;
    opts.num_frames = frames;
    opts.page_bytes = kPage;
    opts.expand_reads_until_warm = false;
    pool = std::make_unique<BufferPool>(opts, &disk, &log, ssd.get());
  }

  SimExecutor executor;
  SimDevice disk_dev;
  SimDevice ssd_dev;
  SimDevice log_dev;
  DiskManager disk;
  LogManager log;
  std::unique_ptr<SsdManager> ssd;
  std::unique_ptr<BufferPool> pool;
};

void BM_FetchHit(benchmark::State& state) {
  Fixture f(1 << 12, 0);
  IoContext ctx;
  for (PageId p = 0; p < 1 << 12; ++p) {
    f.pool->FetchPage(p, AccessKind::kRandom, ctx);
  }
  Rng rng(1);
  for (auto _ : state) {
    PageGuard g =
        f.pool->FetchPage(rng.Uniform(1 << 12), AccessKind::kRandom, ctx);
    benchmark::DoNotOptimize(g.view().data());
  }
}
BENCHMARK(BM_FetchHit);

void BM_FetchMissFromDiskWithEviction(benchmark::State& state) {
  Fixture f(1 << 8, 0);
  IoContext ctx;
  Rng rng(2);
  for (auto _ : state) {
    PageGuard g =
        f.pool->FetchPage(rng.Uniform(1 << 16), AccessKind::kRandom, ctx);
    benchmark::DoNotOptimize(g.view().data());
  }
}
BENCHMARK(BM_FetchMissFromDiskWithEviction);

void BM_FetchMissServedBySsd(benchmark::State& state) {
  constexpr PageId kWorkingSet = 1 << 14;
  Fixture f(1 << 8, kWorkingSet);
  IoContext ctx;
  ctx.executor = &f.executor;
  Rng rng(3);
  // Warm the SSD cache with the working set (via clean evictions) until a
  // whole sweep reads nothing from disk: every page not in the pool is then
  // on the SSD, and the timed loop measures the SSD path alone.
  for (int sweep = 0; sweep < 8; ++sweep) {
    const int64_t disk_reads_before = f.pool->stats().disk_page_reads;
    for (PageId p = 0; p < kWorkingSet; ++p) {
      f.pool->FetchPage(p, AccessKind::kRandom, ctx);
    }
    ctx.now += Seconds(100);  // all admission writes complete
    f.executor.RunUntil(ctx.now);
    if (f.pool->stats().disk_page_reads == disk_reads_before) break;
  }
  const BufferPoolStats before = f.pool->stats();
  for (auto _ : state) {
    PageGuard g = f.pool->FetchPage(rng.Uniform(kWorkingSet),
                                    AccessKind::kRandom, ctx);
    benchmark::DoNotOptimize(g.view().data());
  }
  const BufferPoolStats after = f.pool->stats();
  const double hit_rate =
      static_cast<double>(after.ssd_hits - before.ssd_hits) /
      static_cast<double>(std::max<int64_t>(1, after.misses - before.misses));
  state.counters["ssd_hit_rate"] = hit_rate;
  if (hit_rate < 0.99) {
    state.SkipWithError("timed loop was not served by the SSD");
  }
}
BENCHMARK(BM_FetchMissServedBySsd);

void BM_DirtyEvictionPath(benchmark::State& state) {
  Fixture f(1 << 8, 1 << 12);
  IoContext ctx;
  ctx.executor = &f.executor;
  Rng rng(4);
  uint64_t txn = 1;
  for (auto _ : state) {
    PageGuard g =
        f.pool->FetchPage(rng.Uniform(1 << 15), AccessKind::kRandom, ctx);
    g.view().payload()[0]++;
    g.LogUpdate(txn++, kPageHeaderSize, 1);
  }
}
BENCHMARK(BM_DirtyEvictionPath);

void BM_PrefetchRange(benchmark::State& state) {
  Fixture f(1 << 12, 0);
  IoContext ctx;
  PageId next = 0;
  for (auto _ : state) {
    f.pool->PrefetchRange(next % ((1 << 16) - 8), 8, ctx);
    next += 8;
    if (next % (1 << 12) == 0) f.pool->Reset();
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_PrefetchRange);

// The checksum kernel alone over one page: the buffer pool runs it on every
// device read (verify) and every eviction or admission (seal).
void BM_Crc32cPage(benchmark::State& state) {
  std::vector<uint8_t> page(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(page.data(), page.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_Crc32cPage)->Arg(1024)->Arg(8192);

}  // namespace
}  // namespace turbobp

BENCHMARK_MAIN();
