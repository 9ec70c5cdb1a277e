// Negative test for tools/analysis/static_check.py, rule `async-io`.
//
// An AsyncIoEngine submission is issued while a BufferPool shard latch is
// held. Engine completion callbacks re-enter the frame state machine and
// take shard latches on a fresh stack, so Submit/Reap/Drain under
// kBufferPool / kBufferFrame / kSsdPartition deadlocks (DESIGN.md §12
// completion-context rules). The checker must flag both engine calls; ctest
// asserts a non-zero exit (WILL_FAIL).
//
// This file is never compiled — it is a fixture parsed by the structural
// checker, written against the real type names so lock resolution works.

namespace turbobp {

void BadSubmitUnderShardLatch(Shard& sh, AsyncIoEngine* io_engine_,
                              AsyncIoRequest& req, IoContext& ctx) {
  TrackedLockGuard lock(sh.mu);
  io_engine_->Submit(req, ctx);  // BAD: engine entry under a pool latch
}

void BadDrainUnderPartitionLatch(Partition& part, AsyncIoEngine* engine,
                                 IoContext& ctx) {
  TrackedLockGuard lock(part.mu);
  ctx.Wait(engine->Drain(ctx));  // BAD: drain reaps under the partition
}

}  // namespace turbobp
