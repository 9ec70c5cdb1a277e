#ifndef TURBOBP_STORAGE_DISK_MANAGER_H_
#define TURBOBP_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <span>

#include "io/async_io_engine.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// The disk manager of Figure 1: mediates all page I/O between the buffer
// manager and the database volume (typically a StripedDiskArray).
//
// Two routes reach the device. Single-page foreground reads and writes
// (fetch misses, evictions, redo writes) and the warm-up expansion read are
// blocking calls below, one device request each. Multi-page and background
// I/O — read-ahead with the Section 3.3.3 trimming, the checkpoint drain,
// LC group cleaning, scrub repair and redo prefetch — is submitted to the
// async engine this manager owns (DESIGN.md §12), which is built over the
// same device, so no consumer can pair a pool with an engine over another
// volume.
//
// The disk array is the durable home of every page, so transient device
// errors are absorbed with a bounded retry/backoff (here, and per request
// in the engine); a request that still fails is surfaced to the caller,
// for whom a dead disk array (unlike a dead SSD cache) is fatal.
class DiskManager {
 public:
  // Transient-error policy: retry up to kRetryLimit attempts, charging
  // kRetryBackoff of virtual time between attempts.
  static constexpr int kRetryLimit = 3;
  static constexpr Time kRetryBackoff = Millis(1);

  explicit DiskManager(StorageDevice* data,
                       const AsyncIoEngine::Options& engine_options = {});
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  uint32_t page_bytes() const { return data_->page_bytes(); }
  uint64_t num_pages() const { return data_->num_pages(); }
  StorageDevice* device() { return data_; }
  // The async submit/reap engine over device(). Its requests bypass the
  // counters below; AsyncIoEngine::stats() reports them.
  AsyncIoEngine& engine() { return engine_; }

  // Blocking single-page read; advances ctx.now to completion. Like every
  // entry point below: never call with a buffer-pool shard or frame latch
  // held (the PR-5 invariant, enforced by the EXCLUDES contracts).
  Status ReadPage(PageId pid, std::span<uint8_t> out, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kBufferFrame));

  // Blocking contiguous multi-page read as one device request.
  Status ReadPages(PageId first, uint32_t n, std::span<uint8_t> out,
                   IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kBufferFrame));

  // Asynchronous write: consumes device time, returns the completion time,
  // leaves ctx.now unchanged.
  IoResult WritePage(PageId pid, std::span<const uint8_t> data, IoContext& ctx)
      TURBOBP_EXCLUDES(TURBOBP_LATCH_CAP(LatchClass::kBufferPool),
                       TURBOBP_LATCH_CAP(LatchClass::kBufferFrame));

  Time EstimateReadTime(AccessKind kind) const {
    return data_->EstimateReadTime(kind);
  }

  int64_t reads_issued() const {
    return reads_.load(std::memory_order_relaxed);
  }
  int64_t writes_issued() const {
    return writes_.load(std::memory_order_relaxed);
  }
  int64_t pages_read() const {
    return pages_read_.load(std::memory_order_relaxed);
  }
  // Blocking multi-page reads (n > 1), each ONE vectored device request,
  // counted per request rather than per page. Only the buffer pool's
  // warm-up expansion issues them; read-ahead goes through engine().
  int64_t multi_page_reads() const {
    return multi_page_reads_.load(std::memory_order_relaxed);
  }
  int64_t io_retries() const {
    return io_retries_.load(std::memory_order_relaxed);
  }
  int64_t io_errors() const {
    return io_errors_.load(std::memory_order_relaxed);
  }

 private:
  StorageDevice* data_;
  AsyncIoEngine engine_;
  // Relaxed atomics: bumped concurrently once the buffer pool issues reads
  // and writes outside its shard latches.
  std::atomic<int64_t> reads_{0};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> pages_read_{0};
  std::atomic<int64_t> multi_page_reads_{0};
  std::atomic<int64_t> io_retries_{0};
  std::atomic<int64_t> io_errors_{0};
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_DISK_MANAGER_H_
