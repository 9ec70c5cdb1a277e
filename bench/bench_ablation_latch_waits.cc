// Ablation for the Section 2.5 latch-contention claim: TAC writes a page to
// the SSD immediately after its disk read, and the admission write holds
// the page latch against forward processing — "with the TPC-E workloads we
// have observed that TAC has page latch times that are about 25% longer on
// the average". The paper's designs write only at eviction, so they show
// no such waits.
//
// Phase 2 measures the buffer pool's own latches under real OS threads: N
// clients fault distinct pages through a device with a fixed per-read sleep.
// A pool that holds its pool-wide latch across the device read serializes
// the faults (each thread's wall time ~ N * reads * sleep); a pool that
// drops the latch for the I/O overlaps them (wall ~ reads * sleep). The
// derived latch wait — wall time minus the thread's own device time — is
// the A/B metric, computable against any pool version; the pool's
// shard-latch counters are reported too.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "buffer/buffer_pool.h"
#include "storage/mem_device.h"
#include "wal/log_manager.h"

namespace turbobp {
namespace {

// StorageDevice decorator sleeping (real time) before each charged read.
class SleepyReadDevice : public StorageDevice {
 public:
  SleepyReadDevice(StorageDevice* base, std::chrono::microseconds read_sleep)
      : base_(base), read_sleep_(read_sleep) {}

  uint64_t num_pages() const override { return base_->num_pages(); }
  uint32_t page_bytes() const override { return base_->page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override {
    if (charge) std::this_thread::sleep_for(read_sleep_);
    return base_->Read(first_page, num_pages, out, now, charge);
  }

  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override {
    return base_->Write(first_page, num_pages, data, now, charge);
  }

 private:
  StorageDevice* base_;
  std::chrono::microseconds read_sleep_;
};

std::string ThreadedContentionPhase(std::vector<std::string>& json_items) {
  constexpr int kThreads = 8;
  const int pages_per_thread = bench::QuickMode() ? 60 : 150;
  constexpr std::chrono::microseconds kReadSleep(300);
  constexpr uint32_t kPage = 512;

  MemDevice mem(1 << 14, kPage);
  mem.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    PageView v(out.data(), kPage);
    v.Format(page, PageType::kRaw);
    v.SealChecksum();
  });
  SleepyReadDevice slow(&mem, kReadSleep);
  MemDevice log_dev(1 << 10, kPage);
  DiskManager disk(&slow);
  LogManager log(&log_dev);
  BufferPool::Options opts;
  opts.num_frames = 4096;  // every fault gets a free frame: reads dominate
  opts.page_bytes = kPage;
  opts.expand_reads_until_warm = false;
  BufferPool pool(opts, &disk, &log, nullptr);

  std::vector<int64_t> wall_ns(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto t0 = std::chrono::steady_clock::now();
      IoContext ctx;
      for (int i = 0; i < pages_per_thread; ++i) {
        const PageId pid =
            static_cast<PageId>(t) * pages_per_thread + i;
        PageGuard g = pool.FetchPage(pid, AccessKind::kRandom, ctx);
      }
      wall_ns[t] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    });
  }
  for (auto& th : threads) th.join();

  const int64_t own_io_ns =
      static_cast<int64_t>(pages_per_thread) *
      std::chrono::duration_cast<std::chrono::nanoseconds>(kReadSleep).count();
  int64_t derived_wait_ns = 0;
  int64_t wall_total_ns = 0;
  for (const int64_t w : wall_ns) {
    wall_total_ns += w;
    derived_wait_ns += std::max<int64_t>(0, w - own_io_ns);
  }

  std::string j = "{";
  bench::JsonAdd(j, "phase", "threaded_contention", true);
  bench::JsonAdd(j, "threads", static_cast<int64_t>(kThreads));
  bench::JsonAdd(j, "pages_per_thread",
                 static_cast<int64_t>(pages_per_thread));
  bench::JsonAdd(j, "read_sleep_us", kReadSleep.count());
  bench::JsonAdd(j, "wall_ms_total",
                 static_cast<double>(wall_total_ns) / 1e6);
  bench::JsonAdd(j, "own_io_ms_per_thread",
                 static_cast<double>(own_io_ns) / 1e6);
  bench::JsonAdd(j, "derived_latch_wait_ms",
                 static_cast<double>(derived_wait_ns) / 1e6);
  const BufferPoolStats stats = pool.stats();
  bench::JsonAdd(j, "pool_latch_waits", stats.pool_latch_waits);
  bench::JsonAdd(j, "pool_latch_wait_ms",
                 static_cast<double>(stats.pool_latch_wait_ns) / 1e6);
  j += "}";
  json_items.push_back(j);

  std::printf(
      "Threaded contention (%d threads x %d faults, %lldus/read):\n"
      "  wall total %.1f ms, own-I/O per thread %.1f ms,\n"
      "  derived pool-latch wait %.1f ms\n\n",
      kThreads, pages_per_thread,
      static_cast<long long>(kReadSleep.count()),
      static_cast<double>(wall_total_ns) / 1e6,
      static_cast<double>(own_io_ns) / 1e6,
      static_cast<double>(derived_wait_ns) / 1e6);
  char line[160];
  std::snprintf(line, sizeof(line), "%.1f",
                static_cast<double>(derived_wait_ns) / 1e6);
  return line;
}

void Run() {
  bench::PrintHeader(
      "Ablation: page latch waits caused by SSD admission writes (TPC-E)",
      "TAC's latch waits ~25% longer than the eviction-time designs");

  std::vector<std::string> json_items;

  const Time duration = bench::ScaledDuration(Seconds(240));
  const TpceConfig config = bench::TpceForPages(2500, bench::kTpcePages[1]);

  TextTable table({"design", "total latch wait (ms)", "per 1K txns (ms)",
                   "tpsE (scaled)"});
  for (SsdDesign d : {SsdDesign::kDualWrite, SsdDesign::kLazyCleaning,
                      SsdDesign::kTac}) {
    const DriverResult r = bench::RunOltp<TpceWorkload>(
        d, config, bench::kTpcePages[1], 0.01, duration, Seconds(40));
    table.AddRow(
        {r.design, TextTable::Fmt(ToMillis(r.total_latch_wait), 1),
         TextTable::Fmt(ToMillis(r.total_latch_wait) /
                            std::max<double>(1, r.total_txns / 1000.0),
                        2),
         TextTable::Fmt(r.steady_rate, 1)});
    json_items.push_back(bench::ResultJson(r));
    std::fflush(stdout);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: DW and LC accumulate zero admission-latch waits\n"
      "(they write to the SSD only after eviction, when no one holds the\n"
      "page); TAC pays a measurable wait whenever a just-read page is\n"
      "touched again while its admission write is in flight.\n\n");

  ThreadedContentionPhase(json_items);
  bench::WriteJson("ablation_latch_waits", json_items);
}

}  // namespace
}  // namespace turbobp

int main() {
  turbobp::Run();
  return 0;
}
