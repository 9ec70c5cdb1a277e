#include "wal/recovery.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/crash_point.h"
#include "io/async_io_engine.h"
#include "storage/page.h"

namespace turbobp {

RecoveryManager::RecoveryManager(DiskManager* disk, LogManager* log)
    : disk_(disk), log_(log), io_engine_(&disk->engine()) {
  TURBOBP_CHECK(log != nullptr);
}

LogAnalysis RecoveryManager::Analyze(bool track_max_update_lsn) const {
  // The redo start is the latest begin-checkpoint that precedes a durable
  // end record: everything before it is already on disk (sharp
  // checkpoints). A begin with no end after it is a checkpoint that never
  // completed.
  LogAnalysis a;
  Lsn latest_begin = kInvalidLsn;
  a.scan = ScanLogDevice(log_->device(), [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kBeginCheckpoint) {
      latest_begin = rec.lsn;
    } else if (rec.type == LogRecordType::kEndCheckpoint) {
      a.redo_start = latest_begin;
    } else if (track_max_update_lsn && rec.type == LogRecordType::kUpdate) {
      Lsn& maxl = a.max_update_lsn[rec.page_id];
      maxl = std::max(maxl, rec.lsn);
    }
  });
  return a;
}

RecoveryStats RecoveryManager::Recover(
    IoContext& ctx, Lsn redo_start_override,
    const std::unordered_map<PageId, Lsn>* covered_by_ssd,
    const LogAnalysis* analysis) {
  RecoveryStats stats;
  const Time start = ctx.now;
  // The device scan ends at the first record whose LSN breaks continuity or
  // whose CRC fails. A torn final block therefore ends the log at its first
  // damaged record: those records were never acknowledged durable to any
  // client, so leaving them out is the correct recovery.
  LogAnalysis own;
  if (analysis == nullptr) {
    own = Analyze();
    analysis = &own;
  }
  const LogScan& scan = analysis->scan;
  stats.redo_start_lsn = analysis->redo_start;
  stats.torn_tail = scan.torn;
  log_->ResumeFrom(scan);
  // The override can only move redo EARLIER. kInvalidLsn from the analysis
  // means "no completed checkpoint: scan from the very beginning" — the
  // earliest possible start, which no override may narrow. (A restored-SSD
  // min-dirty LSN replacing it would skip the log prefix that rebuilds
  // pages whose SSD copies were dropped at restore verification.)
  if (redo_start_override != kInvalidLsn &&
      stats.redo_start_lsn != kInvalidLsn &&
      redo_start_override < stats.redo_start_lsn) {
    stats.redo_start_lsn = redo_start_override;
  }
  // A wrap of the log device may have overwritten the records redo needs.
  const Lsn needed =
      stats.redo_start_lsn == kInvalidLsn ? Lsn{1} : stats.redo_start_lsn;
  if (scan.records > 0 && scan.first_lsn > needed) {
    stats.status = Status::Corruption(
        "log device wrapped over the redo start: LSN " +
        std::to_string(needed) + " needed, oldest on device " +
        std::to_string(scan.first_lsn));
    return stats;
  }

  const uint32_t page_bytes = disk_->page_bytes();

  // Applies one record to the page image in `buf` and, if the redo test
  // passes, writes it back synchronously (the "recovery/redo-apply"
  // idempotence edge requires every applied record to be durable before the
  // next one).
  auto apply = [&](const LogRecord& rec, std::span<uint8_t> buf) {
    PageView v(buf.data(), page_bytes);
    // Redo test: apply only if the on-disk page has not seen this update.
    if (v.header().page_id == rec.page_id && v.header().lsn >= rec.lsn) {
      ++stats.records_skipped_lsn;
      return;
    }
    TURBOBP_CHECK(rec.offset + rec.bytes.size() <= page_bytes);
    std::memcpy(buf.data() + rec.offset, rec.bytes.data(), rec.bytes.size());
    v.header().lsn = rec.lsn;
    v.SealChecksum();
    const IoResult w = disk_->WritePage(rec.page_id, buf, ctx);
    TURBOBP_CHECK_OK(w.status);
    ctx.Wait(w.time);  // recovery is single-threaded and synchronous
    ++stats.records_applied;
    ++stats.pages_written;
    // One redo step landed on disk. Crashing here and recovering again must
    // converge to the same state (idempotence: the page-LSN redo test skips
    // the already-applied prefix on the next pass).
    TURBOBP_CRASH_POINT("recovery/redo-apply");
  };

  // Deep-queue redo prefetch: group the redo stream into windows of up to
  // 2x the ring's depth DISTINCT pages, prefetch each window's pages
  // through the engine (contiguous runs coalesce into vectored reads,
  // scattered ones overlap across spindles), then apply from the cached
  // images. A record applies INTO its cached image, so a later record of
  // the same page within the window sees every earlier update — the
  // coherence rule that makes caching safe.
  const size_t window =
      static_cast<size_t>(io_engine_->queue_depth()) * 2;
  std::vector<LogRecord> pending;  // the window's records, in LSN order
  std::unordered_map<PageId, std::vector<uint8_t>> cache;
  auto run_window = [&] {
    std::vector<PageId> pids;
    pids.reserve(cache.size());
    for (const auto& [pid, image] : cache) pids.push_back(pid);
    std::sort(pids.begin(), pids.end());
    for (const PageId pid : pids) {
      AsyncIoRequest req;
      req.first_page = pid;
      req.num_pages = 1;
      req.out = cache[pid];
      req.on_complete = [](const IoCompletion& c) {
        TURBOBP_CHECK_OK(c.result.status);
      };
      io_engine_->Submit(req, ctx);
    }
    ctx.Wait(io_engine_->Drain(ctx));
    stats.pages_read += static_cast<int64_t>(pids.size());
    for (const LogRecord& rec : pending) apply(rec, cache[rec.page_id]);
    pending.clear();
    cache.clear();
  };

  // Redo pass over the device: the same records, in the same order, up to
  // the same durable end as the analysis pass.
  ScanLogDevice(log_->device(), [&](const LogRecord& rec) {
    if (rec.lsn < needed || rec.type != LogRecordType::kUpdate) return;
    ++stats.records_scanned;
    if (covered_by_ssd != nullptr) {
      const auto it = covered_by_ssd->find(rec.page_id);
      if (it != covered_by_ssd->end() && rec.lsn <= it->second) {
        // A restored (dirty) SSD copy already contains this update; the
        // cleaner will bring the disk forward later, exactly as if the
        // crash had never happened.
        ++stats.records_skipped_ssd;
        return;
      }
    }
    if (!cache.contains(rec.page_id)) {
      if (cache.size() == window) run_window();
      cache.emplace(rec.page_id, std::vector<uint8_t>(page_bytes));
    }
    pending.push_back(rec);
  });
  if (!pending.empty()) run_window();
  stats.elapsed = ctx.now - start;
  return stats;
}

}  // namespace turbobp
