#include "core/dual_write.h"

namespace turbobp {

EvictionOutcome DualWriteCache::OnEvictDirty(PageId pid,
                                             std::span<const uint8_t> data,
                                             AccessKind kind, Lsn page_lsn,
                                             IoContext& ctx) {
  MaybeDegrade(ctx);
  EvictionOutcome outcome;
  outcome.write_to_disk = true;  // always: write-through
  if (degraded()) return outcome;
  if (AdmissionAllows(kind) && !ThrottleBlocks(ctx.now)) {
    // The disk write happens "simultaneously" (the buffer pool issues it on
    // return); since both copies are written, the SSD entry is *clean* —
    // identical to the disk version.
    outcome.cached_on_ssd =
        AdmitPage(pid, data, kind, /*dirty=*/false, page_lsn, ctx);
  } else if (!AdmissionAllows(kind)) {
    Bump(counters_.rejected_sequential);
  } else {
    Bump(counters_.throttled);
  }
  return outcome;
}

void DualWriteCache::OnCheckpointWrite(PageId pid,
                                       std::span<const uint8_t> data,
                                       AccessKind kind, Lsn page_lsn,
                                       IoContext& ctx) {
  // Section 3.2: checkpointed dirty pages marked "random" are written to
  // the SSD as well as the disk, extending the eviction-only policy.
  if (kind != AccessKind::kRandom) return;
  if (ThrottleBlocks(ctx.now)) return;
  AdmitPage(pid, data, kind, /*dirty=*/false, page_lsn, ctx);
}

}  // namespace turbobp
