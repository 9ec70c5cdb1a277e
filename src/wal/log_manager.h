#ifndef TURBOBP_WAL_LOG_MANAGER_H_
#define TURBOBP_WAL_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"
#include "debug/latch_order_checker.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"
#include "wal/log_record.h"

namespace turbobp {

// Write-ahead log over a dedicated log device (the paper's setup uses one
// HDD exclusively for the DBMS log). The device is the log's only durable
// copy. Appends encode each record into an in-memory tail buffer in its
// on-device form (wal/log_record.h); FlushTo() forces the log through a
// given LSN by writing the tail as one page-padded block at the sequential
// device cursor, and the flushed bytes leave memory. That is the WAL
// obligation the buffer pool and the LC cleaner discharge before writing
// any dirty page to the SSD or the disk (Section 2.4). Recovery reads the
// log back with ScanLogDevice and resumes appending with ResumeFrom().
//
// Flushes use leader-based group commit (DESIGN.md §14): the first thread to
// find no flush in flight becomes the leader, takes the batch under mu_,
// and performs ONE device write covering every record appended so far with
// mu_ *released* — appenders keep appending and followers park on a condvar
// until the leader publishes the new durable LSN. kWal is therefore
// device-io-forbidden in the latch-order spec.
class LogManager {
 public:
  LogManager(StorageDevice* log_device);
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  Lsn AppendUpdate(uint64_t txn_id, PageId pid, uint32_t offset,
                   std::span<const uint8_t> bytes) TURBOBP_EXCLUDES(mu_);
  Lsn AppendCommit(uint64_t txn_id) TURBOBP_EXCLUDES(mu_);
  Lsn AppendBeginCheckpoint() TURBOBP_EXCLUDES(mu_);
  Lsn AppendEndCheckpoint() TURBOBP_EXCLUDES(mu_);

  // Forces the log through `lsn`. Asynchronous in virtual time: consumes
  // log-device time, returns the completion time, leaves ctx.now alone.
  // Idempotent for already-durable LSNs. May block (condvar) behind an
  // in-flight leader write in real-thread mode.
  Time FlushTo(Lsn lsn, IoContext& ctx) TURBOBP_EXCLUDES(mu_);

  // Group commit: forces the whole log and blocks the client until durable.
  void CommitForce(IoContext& ctx) TURBOBP_EXCLUDES(mu_);

  Lsn current_lsn() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return next_lsn_;
  }
  // Start LSN of the last record known durable. Latch-free (written under
  // mu_, read with acquire), so the eviction path's WAL test and crash-point
  // observers — which may fire with mu_ held — can read it.
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  bool IsDurable(Lsn lsn) const { return lsn <= durable_lsn(); }

  // Records appended (or, after ResumeFrom, found on the device) and flush
  // requests issued (stats).
  int64_t num_records() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return logical_records_;
  }
  int64_t flushes_issued() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return flushes_;
  }
  int64_t bytes_appended() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return static_cast<int64_t>(next_lsn_);
  }
  // Group-commit observability: flushes_issued() counts leader batches;
  // flush_waits() counts times a caller parked behind an in-flight batch.
  int64_t flush_waits() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return flush_waits_;
  }

  // Records in the unflushed in-memory tail (bounded-memory assertions).
  size_t retained_records() const TURBOBP_EXCLUDES(mu_) {
    TrackedLockGuard lock(mu_);
    return tail_records_;
  }

  // The log device: the log's only durable copy (ScanLogDevice reads it).
  StorageDevice* device() const { return device_; }

  // Simulates a crash: discards the records that were never forced to the
  // log device, and the next append reuses their LSN space. Returns the
  // number of records lost.
  size_t DropUnflushed() TURBOBP_EXCLUDES(mu_);

  // Restart: adopts what a scan of the log device found. The durable log
  // ends at scan.last_lsn, appends resume at scan.end_lsn (reusing the LSN
  // space of a torn tail), and the next flush writes at scan.next_page.
  void ResumeFrom(const LogScan& scan) TURBOBP_EXCLUDES(mu_);

 private:
  Lsn Append(LogRecordType type, uint64_t txn_id, PageId pid, uint32_t offset,
             std::span<const uint8_t> bytes) TURBOBP_EXCLUDES(mu_);
  // Computes the device extent covering the bytes [durable_end_, target_end)
  // and advances the sequential log-device cursor.
  void StageDeviceWrite(Lsn target_end, uint64_t* first, uint32_t* npages)
      TURBOBP_REQUIRES(mu_);

  // WAL latch: serializes appends and the flush-protocol state. Acquired
  // under the buffer pool latch on the eviction path (kBufferPool -> kWal)
  // and standalone by checkpoints and group commit. Device-io-forbidden:
  // the group-commit leader drops mu_ for the batched log-device write.
  mutable TrackedMutex<LatchClass::kWal> mu_;
  StorageDevice* device_;
  // Encoded records not yet handed to a flush: the bytes
  // [durable_end_, next_lsn_) while no flush is in flight.
  std::vector<uint8_t> tail_ TURBOBP_GUARDED_BY(mu_);
  size_t tail_records_ TURBOBP_GUARDED_BY(mu_) = 0;
  // The in-flight batch, padded to whole pages. The leader swaps it with
  // tail_ under mu_ and then owns it alone (flush_in_flight_ excludes every
  // other leader) until its write completes.
  std::vector<uint8_t> block_;
  Lsn next_lsn_ TURBOBP_GUARDED_BY(mu_) = 1;  // byte-offset LSN; 0 invalid
  std::atomic<Lsn> durable_lsn_ = 0;           // written under mu_
  // End of the last durable record: the first byte the next flush writes.
  Lsn durable_end_ TURBOBP_GUARDED_BY(mu_) = 1;
  // Start LSN of the last appended record (FlushTo clamps against it).
  Lsn last_record_lsn_ TURBOBP_GUARDED_BY(mu_) = 0;
  // Next block's first page; wraps around the log device.
  uint64_t device_offset_pages_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t flushes_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t logical_records_ TURBOBP_GUARDED_BY(mu_) = 0;
  int64_t flush_waits_ TURBOBP_GUARDED_BY(mu_) = 0;

  // Group-commit protocol state. flush_in_flight_ is true while a leader
  // writes to the device with mu_ released; followers park on flush_cv_
  // and re-check durable_lsn_ when notified. Completion of the flush that
  // established durable_lsn_, in virtual time (what a woken follower
  // returns as its flush completion).
  bool flush_in_flight_ TURBOBP_GUARDED_BY(mu_) = false;
  Time durable_completion_ TURBOBP_GUARDED_BY(mu_) = 0;
  std::condition_variable_any flush_cv_;
};

}  // namespace turbobp

#endif  // TURBOBP_WAL_LOG_MANAGER_H_
