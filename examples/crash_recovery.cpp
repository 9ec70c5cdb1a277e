// Crash and restart: demonstrates the WAL + sharp checkpoint + redo
// machinery under the LC design — the design with real recovery
// implications, since the SSD can hold the only up-to-date copy of a page
// (Section 2.3.3 / 3.2 of the paper).
//
//   $ ./build/examples/crash_recovery

#include <cstdio>
#include <cstring>

#include "engine/database.h"

#include "common/rng.h"
#include "engine/heap_file.h"

using namespace turbobp;

int main() {
  SystemConfig config;
  config.page_bytes = 1024;
  config.db_pages = 4096;
  config.bp_frames = 64;
  config.ssd_frames = 1024;
  config.design = SsdDesign::kLazyCleaning;
  config.ssd_options.lc_dirty_fraction = 0.9;  // hold dirty pages on the SSD

  DbSystem system(config);
  Database db(&system);
  HeapFile accounts = HeapFile::Create(&db, "accounts", 64, 10000);

  // Load accounts, each holding a balance of 1000.
  IoContext loader = system.MakeContext(false);
  for (uint32_t i = 0; i < 10000; ++i) {
    std::vector<uint8_t> row(64, 0);
    int64_t balance = 1000;
    std::memcpy(row.data(), &balance, 8);
    accounts.Append(row, 0, loader);
  }
  system.buffer_pool().FlushAllDirty(loader, false);
  system.buffer_pool().Reset();

  // Transfer money between random accounts; each transfer is a committed
  // transaction (two updates + commit force). Total balance is invariant.
  IoContext ctx = system.MakeContext();
  Rng rng(7);
  uint64_t txn = 1;
  auto transfer = [&](uint64_t from, uint64_t to, int64_t amount) {
    std::vector<uint8_t> row(64);
    int64_t balance;
    accounts.Read(accounts.RidOfRow(from), row, AccessKind::kRandom, ctx);
    std::memcpy(&balance, row.data(), 8);
    balance -= amount;
    std::memcpy(row.data(), &balance, 8);
    accounts.Update(accounts.RidOfRow(from), row, txn, ctx);
    accounts.Read(accounts.RidOfRow(to), row, AccessKind::kRandom, ctx);
    std::memcpy(&balance, row.data(), 8);
    balance += amount;
    std::memcpy(row.data(), &balance, 8);
    accounts.Update(accounts.RidOfRow(to), row, txn, ctx);
    system.log().AppendCommit(txn);
    system.log().CommitForce(ctx);
    ++txn;
  };

  for (int i = 0; i < 2000; ++i) {
    transfer(rng.Uniform(10000), rng.Uniform(10000),
             static_cast<int64_t>(rng.Uniform(100)));
    system.executor().RunUntil(ctx.now);
  }
  // A sharp checkpoint mid-stream (flushes memory AND the SSD's dirty pages).
  ctx.now = std::max(ctx.now, system.executor().now());
  system.checkpoint().RunCheckpoint(ctx);
  for (int i = 0; i < 2000; ++i) {
    transfer(rng.Uniform(10000), rng.Uniform(10000),
             static_cast<int64_t>(rng.Uniform(100)));
    system.executor().RunUntil(ctx.now);
  }
  std::printf("ran %llu committed transfers, 1 checkpoint\n",
              (unsigned long long)txn - 1);
  std::printf("dirty pages at crash: %lld in memory, %lld on the SSD\n",
              (long long)system.buffer_pool().DirtyFrameCount(),
              (long long)system.ssd_manager().stats().dirty_frames);

  // CRASH: memory and the SSD manager's state are gone.
  system.Crash();
  std::printf("\n*** crash ***\n\n");

  IoContext rctx = system.MakeContext();
  const RecoveryStats stats = system.Recover(rctx);
  if (!stats.status.ok()) {
    std::printf("recovery failed: %s\n", stats.status.ToString().c_str());
    return 1;
  }
  std::printf("recovery: redo from lsn %llu, %lld records scanned, "
              "%lld applied, %lld already on disk, %.1f virtual ms\n",
              (unsigned long long)stats.redo_start_lsn,
              (long long)stats.records_scanned, (long long)stats.records_applied,
              (long long)stats.records_skipped_lsn, ToMillis(stats.elapsed));

  // Verify the invariant directly against the disk.
  int64_t total = 0;
  std::vector<uint8_t> buf(1024);
  for (uint64_t r = 0; r < 10000; ++r) {
    const Rid rid = accounts.RidOfRow(r);
    IoContext read_ctx = system.MakeContext(false);
    TURBOBP_CHECK_OK(
        system.disk_manager().ReadPage(rid.page_id, buf, read_ctx));
    PageView v(buf.data(), 1024);
    int64_t balance;
    std::memcpy(&balance,
                v.data() + kPageHeaderSize + rid.slot * 64, 8);
    total += balance;
  }
  std::printf("sum of balances after recovery: %lld (expected %lld) -> %s\n",
              (long long)total, 10000LL * 1000,
              total == 10000LL * 1000 ? "CONSISTENT" : "CORRUPT");
  return total == 10000LL * 1000 ? 0 : 1;
}
