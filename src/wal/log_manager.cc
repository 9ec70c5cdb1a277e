#include "wal/log_manager.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "fault/crash_point.h"

namespace turbobp {

LogManager::LogManager(StorageDevice* log_device) : device_(log_device) {
  TURBOBP_CHECK(log_device != nullptr);
}

Lsn LogManager::Append(LogRecordType type, uint64_t txn_id, PageId pid,
                       uint32_t offset, std::span<const uint8_t> bytes) {
  TrackedLockGuard lock(mu_);
  const Lsn lsn = next_lsn_;
  EncodeLogRecord(lsn, type, txn_id, pid, offset, bytes, tail_);
  next_lsn_ += kLogRecordHeaderBytes + bytes.size();
  last_record_lsn_ = lsn;
  ++tail_records_;
  ++logical_records_;
  // The record exists in the log buffer but is not durable yet: a crash
  // here loses it (and everything after it) unless a later flush lands.
  TURBOBP_CRASH_POINT("wal/append");
  return lsn;
}

Lsn LogManager::AppendUpdate(uint64_t txn_id, PageId pid, uint32_t offset,
                             std::span<const uint8_t> bytes) {
  return Append(LogRecordType::kUpdate, txn_id, pid, offset, bytes);
}

Lsn LogManager::AppendCommit(uint64_t txn_id) {
  return Append(LogRecordType::kCommit, txn_id, kInvalidPageId, 0, {});
}

Lsn LogManager::AppendBeginCheckpoint() {
  return Append(LogRecordType::kBeginCheckpoint, 0, kInvalidPageId, 0, {});
}

Lsn LogManager::AppendEndCheckpoint() {
  return Append(LogRecordType::kEndCheckpoint, 0, kInvalidPageId, 0, {});
}

void LogManager::StageDeviceWrite(Lsn target_end, uint64_t* first,
                                  uint32_t* npages) {
  // The batch is every byte from the end of the last durable record through
  // the end of the target record.
  const uint64_t pending_bytes = target_end - durable_end_;
  const uint32_t page_bytes = device_->page_bytes();
  *npages = static_cast<uint32_t>(
      std::max<uint64_t>(1, (pending_bytes + page_bytes - 1) / page_bytes));
  TURBOBP_CHECK(*npages <= device_->num_pages());
  // The log is written sequentially and wraps around the device. Nothing
  // stops a wrap from overwriting records recovery still needs; recovery
  // notices (its redo start is no longer on the device) and fails with
  // kCorruption rather than replay a partial log.
  *first = device_offset_pages_;
  if (*first + *npages > device_->num_pages()) {
    *first = 0;
  }
  device_offset_pages_ = (*first + *npages) % device_->num_pages();
}

// The group-commit protocol juggles mu_ around the device write and parks
// followers on flush_cv_, which Clang's thread-safety analysis cannot
// follow (std::unique_lock + condition_variable_any are unannotated).
// Discipline is enforced by the runtime latch-order checker, the TSan CI
// job, and the structural io-under-latch rule instead.
Time LogManager::FlushTo(Lsn lsn, IoContext& ctx)
    TURBOBP_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<TrackedMutex<LatchClass::kWal>> lock(mu_);
  // Clamp to the last appended record.
  lsn = std::min(lsn, last_record_lsn_);
  bool waited = false;
  for (;;) {
    if (lsn <= durable_lsn()) {
      // Already durable, or a leader's batch covered this LSN while we
      // waited; that batch's virtual completion is what the caller observes.
      return waited ? std::max(ctx.now, durable_completion_) : ctx.now;
    }
    if (flush_in_flight_) {
      // Follower: a leader is writing with mu_ released. Park; the leader
      // batches everything appended before its write, so one wakeup
      // usually covers us.
      ++flush_waits_;
      waited = true;
      flush_cv_.wait(lock);
      continue;
    }
    // Leader: batch every record appended so far into one device write.
    // The tail becomes the block; appenders start a fresh tail meanwhile.
    flush_in_flight_ = true;
    const Lsn target = last_record_lsn_;
    const Lsn target_end = next_lsn_;
    uint64_t first = 0;
    uint32_t npages = 0;
    StageDeviceWrite(target_end, &first, &npages);
    block_.swap(tail_);
    TURBOBP_CHECK(block_.size() == target_end - durable_end_);
    tail_records_ = 0;
    if (ctx.charge) ++flushes_;
    lock.unlock();

    // About to force the log: nothing new is durable yet.
    TURBOBP_CRASH_POINT("wal/flush-begin");
    block_.resize(static_cast<size_t>(npages) * device_->page_bytes(), 0);
    const IoResult res =
        device_->Write(first, npages, block_, ctx.now, ctx.charge);
    // A failed log write means durability can no longer be promised; unlike
    // the SSD cache there is no degraded mode to fall back to.
    TURBOBP_CHECK_OK(res.status);
    // The block is on the medium but durability has not been acknowledged:
    // a crash here leaves the batch on the device (recovery replays it), or,
    // if the write tore, a damaged record where the device scan stops.
    TURBOBP_CRASH_POINT("wal/flush-device");
    // The leader rides out the write's modeled duration here, with mu_
    // released but flush_in_flight_ still set: commits arriving meanwhile
    // append, park on flush_cv_, and are covered by the *next* leader's
    // batch — this window is what makes group commit group. (Sim mode: only
    // advances ctx.now; threaded mode: wall-sleeps per real_sleep_scale.)
    ctx.Wait(res.time);
    block_.clear();

    lock.lock();
    durable_lsn_.store(target, std::memory_order_release);
    durable_end_ = target_end;
    durable_completion_ = res.time;
    flush_in_flight_ = false;
    // The flushed prefix is now durable; pages covered by it may be written.
    TURBOBP_CRASH_POINT("wal/flush-durable");
    lock.unlock();
    // Notify with mu_ released: waking N followers into a held latch is the
    // classic hurry-up-and-wait storm — every wakeup would immediately block
    // on the relock and get billed as kWal contention.
    flush_cv_.notify_all();
    return res.time;  // target >= lsn: the batch covered the caller
  }
}

void LogManager::CommitForce(IoContext& ctx) {
  const Time completion = FlushTo(current_lsn(), ctx);
  // The commit's durability edge: the group-commit flush has been issued
  // and accounted; the client has not yet been released.
  TURBOBP_CRASH_POINT("wal/commit-force");
  ctx.Wait(completion);
}

size_t LogManager::DropUnflushed() {
  TrackedLockGuard lock(mu_);
  const size_t dropped = tail_records_;
  tail_.clear();
  tail_records_ = 0;
  logical_records_ -= static_cast<int64_t>(dropped);
  next_lsn_ = durable_end_;
  last_record_lsn_ = durable_lsn();
  return dropped;
}

void LogManager::ResumeFrom(const LogScan& scan) {
  TrackedLockGuard lock(mu_);
  TURBOBP_CHECK(!flush_in_flight_);
  tail_.clear();
  tail_records_ = 0;
  next_lsn_ = scan.end_lsn;
  durable_lsn_.store(scan.last_lsn, std::memory_order_release);
  durable_end_ = scan.end_lsn;
  last_record_lsn_ = scan.last_lsn;
  device_offset_pages_ = scan.next_page % device_->num_pages();
  logical_records_ = scan.records;
}

}  // namespace turbobp
