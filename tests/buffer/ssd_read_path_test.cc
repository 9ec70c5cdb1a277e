// The buffer pool's SSD read path end to end: every device read is verified
// exactly once (the SSD manager verifies SSD hits, the pool verifies disk
// reads), and a clean frame carries a current checksum without being
// re-sealed at eviction.

#include <gtest/gtest.h>

#include "debug/invariant_auditor.h"
#include "engine/database.h"
#include "storage/page.h"

namespace turbobp {
namespace {

constexpr uint32_t kPage = 1024;

SystemConfig DwConfig() {
  SystemConfig config;
  config.page_bytes = kPage;
  config.db_pages = 1024;
  config.bp_frames = 8;
  config.ssd_frames = 64;
  config.design = SsdDesign::kDualWrite;
  return config;
}

// Fetches enough other pages to push every earlier page out of the pool.
void FlushPoolWithReads(DbSystem& system, IoContext& ctx, PageId first) {
  for (PageId p = first; p < first + 2 * system.config().bp_frames; ++p) {
    system.buffer_pool().FetchPage(p, AccessKind::kRandom, ctx);
  }
  system.executor().RunUntil(ctx.now);
}

// A checkpoint flushes a dirty page from a snapshot; the frame turns clean
// and is later evicted clean and admitted to the SSD as it stands. The
// flush's completion copies the snapshot's seal into the frame, so the SSD
// copy verifies when the page is read back.
TEST(SsdReadPathTest, CheckpointedPageAdmittedCleanVerifiesOnSsdReRead) {
  DbSystem system(DwConfig());
  Database db(&system);
  IoContext ctx = system.MakeContext();
  constexpr PageId kPid = 3;
  {
    // Sequential: DW's checkpoint writes only random pages to the SSD, so
    // the SSD copy comes from the clean eviction alone.
    PageGuard g =
        system.buffer_pool().FetchPage(kPid, AccessKind::kSequential, ctx);
    g.view().payload()[0] ^= 0x5A;
    g.LogUpdate(/*txn_id=*/1, kPageHeaderSize, 1);
  }
  system.log().AppendCommit(1);
  system.log().CommitForce(ctx);
  system.checkpoint().RunCheckpoint(ctx);
  system.executor().RunUntil(ctx.now);
  ASSERT_EQ(system.ssd_manager().Probe(kPid), SsdProbe::kAbsent);

  const AuditReport audit =
      InvariantAuditor::AuditBufferPool(system.buffer_pool());
  EXPECT_TRUE(audit.ok()) << audit.ToString();

  FlushPoolWithReads(system, ctx, 100);
  ASSERT_FALSE(system.buffer_pool().Contains(kPid));
  ASSERT_EQ(system.ssd_manager().Probe(kPid), SsdProbe::kCleanCopy);

  const int64_t hits_before = system.buffer_pool().stats().ssd_hits;
  system.buffer_pool().FetchPage(kPid, AccessKind::kRandom, ctx);
  EXPECT_EQ(system.buffer_pool().stats().ssd_hits, hits_before + 1);
  EXPECT_EQ(system.ssd_manager().stats().frame_corruptions, 0);
  EXPECT_EQ(system.ssd_manager().stats().quarantined_frames, 0);
}

// An SSD frame torn on admission fails the SSD manager's verification on
// FetchPage: the frame is quarantined and the page is served from disk,
// with no panic in the pool (which does not verify SSD hits again).
TEST(SsdReadPathTest, TornSsdFrameIsQuarantinedAndServedFromDisk) {
  SystemConfig config = DwConfig();
  config.inject_ssd_faults = true;
  config.ssd_fault_plan.scripted[0] = FaultKind::kTornWrite;
  DbSystem system(config);
  Database db(&system);
  IoContext ctx = system.MakeContext();
  constexpr PageId kPid = 5;
  uint32_t last = 0;
  {
    // A torn single-page write lands only the first half of the page, so
    // the update goes at the end of the payload for the tear to show.
    PageGuard g =
        system.buffer_pool().FetchPage(kPid, AccessKind::kRandom, ctx);
    last = g.view().payload_bytes() - 1;
    g.view().payload()[last] = 0x77;
    g.LogUpdate(/*txn_id=*/1, kPageHeaderSize + last, 1);
  }
  system.log().AppendCommit(1);
  system.log().CommitForce(ctx);
  // The dirty eviction writes the disk and (DW) the SSD; the SSD write is
  // the device's first op, and it tears.
  FlushPoolWithReads(system, ctx, 100);
  ASSERT_EQ(system.ssd_fault()->fault_stats().torn_writes, 1);
  ASSERT_EQ(system.ssd_manager().Probe(kPid), SsdProbe::kCleanCopy);

  const int64_t hits_before = system.buffer_pool().stats().ssd_hits;
  const int64_t disk_before = system.buffer_pool().stats().disk_page_reads;
  Status error;
  {
    PageGuard g = system.buffer_pool().FetchPage(kPid, AccessKind::kRandom,
                                                 ctx, &error);
    ASSERT_TRUE(g.valid());
    EXPECT_EQ(g.page_id(), kPid);
    EXPECT_TRUE(g.view().VerifyChecksum());
    EXPECT_EQ(g.view().payload()[last], 0x77);
  }
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(system.buffer_pool().stats().ssd_hits, hits_before);
  EXPECT_EQ(system.buffer_pool().stats().disk_page_reads, disk_before + 1);
  const SsdManagerStats s = system.ssd_manager().stats();
  EXPECT_EQ(s.quarantined_frames, 1);
  EXPECT_GE(s.frame_corruptions, 1);
  EXPECT_EQ(system.ssd_manager().Probe(kPid), SsdProbe::kAbsent);
}

}  // namespace
}  // namespace turbobp
