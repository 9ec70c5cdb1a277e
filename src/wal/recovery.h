#ifndef TURBOBP_WAL_RECOVERY_H_
#define TURBOBP_WAL_RECOVERY_H_

#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "storage/disk_manager.h"
#include "wal/log_manager.h"

namespace turbobp {

struct RecoveryStats {
  // kCorruption when the log device no longer holds the redo start (a wrap
  // overwrote it): nothing is replayed then.
  Status status;
  Lsn redo_start_lsn = kInvalidLsn;
  int64_t records_scanned = 0;
  int64_t records_applied = 0;
  int64_t records_skipped_lsn = 0;  // page already newer (redo test failed)
  int64_t records_skipped_ssd = 0;  // covered by a restored SSD copy
  bool torn_tail = false;  // the log scan stopped at a damaged record
  int64_t pages_read = 0;
  int64_t pages_written = 0;
  Time elapsed = 0;
};

// What one pass over the log device learns before redo: where the durable
// log begins and ends, the redo start, and (on request) each page's highest
// durable update LSN, which proves whether a restored SSD frame is still
// the newest version of its page.
struct LogAnalysis {
  LogScan scan;
  // Latest begin-checkpoint LSN whose end record is on the device
  // (kInvalidLsn if none).
  Lsn redo_start = kInvalidLsn;
  std::unordered_map<PageId, Lsn> max_update_lsn;
};

// Redo-only restart recovery (ARIES redo pass over physiological records).
//
// After a crash the buffer pool is gone. The SSD cache comes back empty
// unless the persistent SSD cache re-attaches its journaled frames first
// (DbSystem::RecoverPersistent), in which case the caller passes the
// restored dirty frames in as `redo_start_override` and `covered_by_ssd`.
// The sharp checkpoint guarantees the disk is current as of the last
// completed checkpoint, apart from what such restored frames cover; this
// pass reads the log device back (ScanLogDevice) and replays the durable
// log tail, applying each update record whose LSN is newer than the
// on-disk page LSN. The log manager then resumes appending where the
// durable log ends.
class RecoveryManager {
 public:
  // The redo pass batches its page reads through disk->engine(): the
  // records to replay are grouped into windows of distinct pages, each
  // window's pages are prefetched through the engine's deep queue (reads of
  // one page are also deduplicated within a window), and redo applies from
  // the prefetched images. Page writes stay synchronous, preserving the
  // per-record "recovery/redo-apply" idempotence edge.
  RecoveryManager(DiskManager* disk, LogManager* log);

  // Replays the durable log from the latest completed checkpoint (or from
  // LSN 1 if none). Returns stats; ctx carries timing. If the redo start is
  // no longer on the log device, returns kCorruption in stats.status and
  // applies nothing.
  //
  // `redo_start_override` forces an earlier redo start (a warm restart must
  // cover restored dirty SSD frames whose updates predate the last
  // checkpoint). `covered_by_ssd` maps pages to the LSN up to which a
  // restored SSD copy already contains all updates: redo skips those
  // records entirely (no disk I/O), which is what makes a warm restart's
  // recovery fast.
  //
  // `analysis` is a result of Analyze() over the log device as it is now;
  // without one, Recover runs the analysis pass itself. Either way the
  // device is read twice: once to analyze, once to redo.
  RecoveryStats Recover(
      IoContext& ctx, Lsn redo_start_override = kInvalidLsn,
      const std::unordered_map<PageId, Lsn>* covered_by_ssd = nullptr,
      const LogAnalysis* analysis = nullptr);

  // The analysis pass: one read of the log device. Fills max_update_lsn
  // only when `track_max_update_lsn` is set.
  LogAnalysis Analyze(bool track_max_update_lsn = false) const;

 private:

  DiskManager* disk_;
  LogManager* log_;
  AsyncIoEngine* io_engine_;  // disk_->engine()
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_RECOVERY_H_
