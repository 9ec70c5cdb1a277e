#ifndef TURBOBP_CORE_SSD_MANAGER_H_
#define TURBOBP_CORE_SSD_MANAGER_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "common/counter_list.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/io_context.h"
#include "storage/storage_device.h"

namespace turbobp {

// What the SSD manager has (or knows) about a page, for the multi-page I/O
// trimming optimization (Section 3.3.3) and the read path.
enum class SsdProbe : uint8_t {
  kAbsent = 0,     // no usable copy on the SSD
  kCleanCopy = 1,  // SSD copy identical to the disk copy
  kNewerCopy = 2,  // SSD copy newer than the disk copy (LC only)
};

// What the buffer pool must still do with an evicted dirty page after the
// SSD manager has taken its share of the work.
struct EvictionOutcome {
  bool write_to_disk = true;    // false only when LC absorbed the page
  bool cached_on_ssd = false;   // page was admitted to the SSD
};

// The SSD cache's counters, declared once (common/counter_list.h). `ops`
// counts probes that classify as one hit or one probe miss (throttle skips
// and read errors classify as neither).
#define TURBOBP_SSD_CACHE_COUNTERS(X)                                         \
  X(ops)                                                                      \
  X(hits)                  /* pages served from the SSD */                    \
  X(hits_dirty)            /* ... of which were dirty SSD pages (LC) */       \
  X(probe_misses)          /* lookups that found nothing usable */            \
  X(admissions)            /* pages written into the SSD cache */             \
  X(evictions)             /* pages replaced */                               \
  X(throttled)             /* operations skipped by throttle control */       \
  X(rejected_sequential)   /* admissions denied by the policy */              \
  X(cleaner_disk_writes)   /* LC: pages copied SSD -> disk */                 \
  X(cleaner_io_requests)   /* LC: disk write requests issued */               \
  X(invalidations)                                                            \
  /* Fault handling (src/fault): device failures seen and survived. */        \
  X(device_read_errors)    /* failed SSD read attempts */                     \
  X(device_write_errors)   /* failed SSD write attempts */                    \
  X(read_retries)          /* extra attempts after transient errors */        \
  X(frame_corruptions)     /* checksum/page-id mismatches on frames */        \
  X(emergency_cleaned)     /* LC: dirty frames salvaged at degrade */         \
  X(checkpoint_flush_failures) /* FlushAllDirty calls that failed */          \
  /* Self-healing (per-partition degradation + background scrub). */          \
  X(partitions_degraded)   /* partitions that entered pass-through */         \
  X(partitions_recovered)  /* partitions re-enabled after healing */          \
  X(scrub_frames_verified) /* patrol reads that verified clean */             \
  X(scrub_frames_repaired) /* corrupt frames re-seeded from disk */           \
  X(io_timeouts)           /* reads that blew their deadline */               \
  X(hedged_reads)          /* reads completed from disk via hedging */

template <typename T>
struct SsdCacheCounters {
  TURBOBP_COUNTER_SET(TURBOBP_SSD_CACHE_COUNTERS)
};

// What stats() returns: the counters (hits + probe_misses >= ops in EVERY
// snapshot, including one taken mid-probe from another thread; equality at
// quiescence) plus gauges read from the cache's live state.
struct SsdManagerStats : SsdCacheCounters<int64_t> {
  int64_t used_frames = 0;
  int64_t dirty_frames = 0;
  int64_t invalid_frames = 0;   // TAC: logically invalidated, space wasted
  int64_t capacity_frames = 0;
  int64_t quarantined_frames = 0;   // frames taken out of service
  int64_t lost_pages = 0;           // dirty pages whose only copy is gone
  bool degraded = false;            // ALL partitions (or the cache) passed-through
};

// Outcome of a persistent-cache warm restart (RecoverPersistentState).
struct PersistentRestoreStats {
  bool journal_valid = false;   // a usable journal epoch was found
  uint64_t journal_epoch = 0;
  bool journal_torn = false;    // append tail truncated at a CRC-torn page
  bool journal_stale = false;   // fell back to an older epoch
  bool scan_fallback = false;   // lazy frame scan ran (journal incomplete)
  size_t entries_recovered = 0;   // journal entries considered
  size_t restored = 0;            // frames re-attached to the cache
  size_t dropped_beyond_horizon = 0;  // LSN > WAL durable horizon: dropped
  size_t dropped_verification = 0;    // header/checksum mismatch: dropped
  size_t reseeded = 0;            // superseded dirty images copied to disk
  // Redo must start no later than this to roll re-attached dirty frames'
  // disk copies forward (kInvalidLsn when no dirty frame was restored).
  Lsn min_dirty_lsn = kInvalidLsn;
};

// The SSD manager of Figure 1: the component this paper contributes.
//
// It sits between the buffer manager and the disk manager and decides, page
// by page and at run time, which pages evicted from (or read into) the
// main-memory buffer pool are worth caching on the SSD. Concrete
// subclasses implement the clean-write (CW), dual-write (DW), lazy-cleaning
// (LC) designs of Section 2.3 and the TAC baseline of Canim et al.; a
// NoSsdManager stub gives the unmodified-DBMS baseline.
class SsdManager {
 public:
  virtual ~SsdManager() = default;

  virtual SsdDesign design() const = 0;
  std::string name() const { return ToString(design()); }

  // --- read path -----------------------------------------------------------

  // Non-destructive probe: is `pid` on the SSD, and is the copy newer than
  // the disk version? Must not charge any I/O time.
  virtual SsdProbe Probe(PageId pid) const = 0;

  // Attempts to serve `pid` from the SSD. On success fills `out`, charges
  // the SSD read to ctx (blocking), updates replacement state and returns
  // true. Honors throttle control: may refuse when the SSD queue is long,
  // unless the SSD copy is newer than disk (then it must serve the read for
  // correctness, Section 3.3.2).
  //
  // Verification contract: `out` is filled only with a copy whose header
  // names `pid` and whose checksum verifies (an SSD frame that fails either
  // is quarantined or retried, never served). The buffer pool relies on
  // this and does not verify an SSD hit again, so every page read from a
  // device is verified exactly once.
  //
  // Returns false on any miss or refusal; the caller then reads from disk.
  // If `error` is non-null it distinguishes the one unservable case: the
  // SSD held the *only* current copy (a dirty LC frame) and that copy is
  // unreadable — disk fallback would silently serve stale data, so the
  // caller must surface `*error` instead.
  virtual bool TryReadPage(PageId pid, std::span<uint8_t> out, IoContext& ctx,
                           Status* error = nullptr) = 0;

  // --- notifications from the buffer manager --------------------------------

  // A buffer-pool lookup missed (before the SSD/disk is consulted). TAC
  // accrues extent temperature here.
  virtual void OnBufferPoolMiss(PageId pid, AccessKind kind, IoContext& ctx) {}

  // A page was just read from *disk* into the buffer pool. TAC admits here
  // (write-through immediately after the disk read); the paper's designs
  // only admit on eviction.
  virtual void OnDiskRead(PageId pid, std::span<const uint8_t> data,
                          AccessKind kind, IoContext& ctx) {}

  // A clean page in the buffer pool is about to be modified; any SSD copy
  // must be invalidated (physically for CW/DW/LC, logically for TAC).
  virtual void OnPageDirtied(PageId pid) = 0;

  // A *clean* page is being evicted from the buffer pool.
  virtual void OnEvictClean(PageId pid, std::span<const uint8_t> data,
                            AccessKind kind, IoContext& ctx) = 0;

  // A *dirty* page is being evicted. The WAL rule has already been enforced
  // by the buffer pool (log flushed through `page_lsn`). Returns what the
  // buffer pool must still do.
  virtual EvictionOutcome OnEvictDirty(PageId pid,
                                       std::span<const uint8_t> data,
                                       AccessKind kind, Lsn page_lsn,
                                       IoContext& ctx) = 0;

  // --- checkpoint integration (Section 3.2) ---------------------------------

  virtual void OnCheckpointBegin() {}
  virtual void OnCheckpointEnd() {}

  // A dirty page is being flushed by a checkpoint (not evicted). DW also
  // writes checkpointed random pages to the SSD to fill it with useful data.
  virtual void OnCheckpointWrite(PageId pid, std::span<const uint8_t> data,
                                 AccessKind kind, Lsn page_lsn,
                                 IoContext& ctx) {}

  // Flushes every dirty SSD page to disk (LC; no-op elsewhere). Returns the
  // completion time of the last disk write plus an error channel: a
  // non-kOk status means dirty pages remain (the device failed past the
  // bounded retry, or a dirty frame's only copy was lost mid-flush). The
  // caller — the sharp checkpoint — must then NOT advance the recovery LSN:
  // redo from the previous checkpoint is what heals the stranded pages.
  virtual IoResult FlushAllDirty(IoContext& ctx) {
    return IoResult{ctx.now, Status::Ok()};
  }

  // --- persistent SSD cache (persistent_ssd_cache mode) ---------------------

  // Warm restart over a surviving SSD device: recovers the metadata journal,
  // verifies each claimed mapping against the frame's self-identifying page
  // header, reconciles against the WAL durable `horizon` (no frame whose LSN
  // exceeds it is ever re-attached) and re-attaches the survivors. Falls
  // back to a lazy scan of the frame area when the journal is torn, stale
  // or absent. Returns false when the manager does not support (or was not
  // configured for) persistence.
  virtual bool RecoverPersistentState(
      Lsn horizon, IoContext& ctx,
      const std::unordered_map<PageId, Lsn>* max_update_lsn = nullptr,
      std::unordered_map<PageId, Lsn>* covered_lsn = nullptr,
      PersistentRestoreStats* out = nullptr) {
    return false;
  }

  // --- misc ------------------------------------------------------------------

  // If the page's frame latch is held by a pending SSD admission write (the
  // TAC latch-contention pathology, Section 2.5), returns the virtual time
  // the latch frees; otherwise returns 0.
  virtual Time LatchBusyUntil(PageId pid, Time now) { return 0; }

  virtual SsdManagerStats stats() const { return {}; }

  // True once the manager has given up on the SSD and behaves like
  // NoSsdManager (graceful degradation after repeated device errors).
  virtual bool degraded() const { return false; }

  // Stops self-rescheduling background actors (the patrol scrubber) so a
  // drain to executor idle terminates — the SSD-manager analogue of
  // CheckpointManager::StopPeriodic(). Idempotent; no-op by default.
  virtual void StopBackground() {}
};

// Baseline: the stock buffer manager with no SSD.
class NoSsdManager : public SsdManager {
 public:
  SsdDesign design() const override { return SsdDesign::kNoSsd; }
  SsdProbe Probe(PageId pid) const override { return SsdProbe::kAbsent; }
  bool TryReadPage(PageId, std::span<uint8_t>, IoContext&,
                   Status* = nullptr) override {
    return false;
  }
  void OnPageDirtied(PageId) override {}
  void OnEvictClean(PageId, std::span<const uint8_t>, AccessKind,
                    IoContext&) override {}
  EvictionOutcome OnEvictDirty(PageId, std::span<const uint8_t>, AccessKind,
                               Lsn, IoContext&) override {
    return EvictionOutcome{/*write_to_disk=*/true, /*cached_on_ssd=*/false};
  }
};

}  // namespace turbobp

#endif  // TURBOBP_CORE_SSD_MANAGER_H_
