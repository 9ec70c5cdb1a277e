#include "storage/disk_manager.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include "fault/fault_injecting_device.h"
#include "storage/file_device.h"
#include "storage/mem_device.h"
#include "storage/sim_device.h"

namespace turbobp {
namespace {

TEST(DiskManagerTest, BlockingReadAdvancesClientClock) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8192);
  ASSERT_TRUE(dm.ReadPage(5, buf, ctx).ok());
  EXPECT_GT(ctx.now, Millis(5));  // paid a random-read seek
  EXPECT_EQ(dm.reads_issued(), 1);
}

TEST(DiskManagerTest, AsyncWriteLeavesClientClockAlone) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8192);
  const IoResult completion = dm.WritePage(5, buf, ctx);
  ASSERT_TRUE(completion.ok());
  EXPECT_EQ(ctx.now, 0);
  EXPECT_GT(completion.time, Millis(5));
  EXPECT_EQ(dm.writes_issued(), 1);
}

TEST(DiskManagerTest, MultiPageReadIsOneRequest) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8 * 8192);
  ASSERT_TRUE(dm.ReadPages(0, 8, buf, ctx).ok());
  EXPECT_EQ(dm.reads_issued(), 1);
  EXPECT_EQ(dm.pages_read(), 8);
  // One request = one seek, far cheaper than eight.
  EXPECT_LT(ctx.now, 2 * dev.EstimateReadTime(AccessKind::kRandom));
}

TEST(DiskManagerTest, MultiPageReadsCountVectoredRequestsNotPages) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> one(8192);
  std::vector<uint8_t> many(8 * 8192);
  ASSERT_TRUE(dm.ReadPage(0, one, ctx).ok());       // single-page: not counted
  ASSERT_TRUE(dm.ReadPages(0, 8, many, ctx).ok());  // vectored: one increment
  ASSERT_TRUE(dm.ReadPages(8, 1, one, ctx).ok());   // n == 1: not vectored
  ASSERT_TRUE(dm.ReadPages(0, 4, many, ctx).ok());
  EXPECT_EQ(dm.multi_page_reads(), 2);
  EXPECT_EQ(dm.reads_issued(), 4);
  EXPECT_EQ(dm.pages_read(), 14);

  // Loader mode moves data without charging any counter.
  IoContext free_ctx;
  free_ctx.charge = false;
  ASSERT_TRUE(dm.ReadPages(0, 8, many, free_ctx).ok());
  EXPECT_EQ(dm.multi_page_reads(), 2);
}

TEST(DiskManagerTest, LoaderModeIsFree) {
  SimDevice dev(1 << 10, 8192, std::make_unique<HddModel>());
  DiskManager dm(&dev);
  IoContext ctx;
  ctx.charge = false;
  std::vector<uint8_t> buf(8192);
  ASSERT_TRUE(dm.ReadPage(1, buf, ctx).ok());
  ASSERT_TRUE(dm.WritePage(2, buf, ctx).ok());
  EXPECT_EQ(ctx.now, 0);
  EXPECT_EQ(dm.reads_issued(), 0);
  EXPECT_EQ(dm.writes_issued(), 0);
}

// The blocking retry policy: a transient error is retried after
// kRetryBackoff of virtual time, for at most kRetryLimit attempts in all;
// an offline device is never retried. Every failed call counts one error.
struct RetryOutcome {
  Status status = Status::Ok();
  Time now = 0;         // the client clock after the call
  Time completion = 0;  // WritePage's completion time
  int64_t retries = 0;
  int64_t errors = 0;
};

// One ReadPage or WritePage through a DiskManager over a fault device that
// injects `fault` on its first `count` operations.
RetryOutcome RunThroughFaults(IoOp op, FaultKind fault, int count) {
  SimDevice base(1 << 10, 8192, std::make_unique<HddModel>());
  FaultPlan plan;
  for (int i = 0; i < count; ++i) plan.scripted[i] = fault;
  FaultInjectingDevice dev(&base, plan);
  DiskManager dm(&dev);
  IoContext ctx;
  std::vector<uint8_t> buf(8192);
  RetryOutcome out;
  if (op == IoOp::kRead) {
    out.status = dm.ReadPage(5, buf, ctx);
  } else {
    const IoResult r = dm.WritePage(5, buf, ctx);
    out.status = r.status;
    out.completion = r.time;
  }
  out.now = ctx.now;
  out.retries = dm.io_retries();
  out.errors = dm.io_errors();
  return out;
}

TEST(DiskManagerRetryTest, TransientReadErrorCostsOneBackoff) {
  const RetryOutcome healthy =
      RunThroughFaults(IoOp::kRead, FaultKind::kNone, 0);
  const RetryOutcome r =
      RunThroughFaults(IoOp::kRead, FaultKind::kTransientError, 1);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.now, healthy.now + DiskManager::kRetryBackoff);
}

TEST(DiskManagerRetryTest, ReadGivesUpAfterRetryLimit) {
  const RetryOutcome r = RunThroughFaults(
      IoOp::kRead, FaultKind::kTransientError, DiskManager::kRetryLimit);
  EXPECT_TRUE(r.status.IsIoError()) << r.status.ToString();
  EXPECT_EQ(r.retries, DiskManager::kRetryLimit - 1);
  EXPECT_EQ(r.errors, 1);
}

TEST(DiskManagerRetryTest, OfflineReadIsNotRetried) {
  const RetryOutcome r =
      RunThroughFaults(IoOp::kRead, FaultKind::kDeviceOffline, 1);
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.errors, 1);
}

TEST(DiskManagerRetryTest, TransientWriteErrorDelaysCompletionNotClient) {
  const RetryOutcome healthy =
      RunThroughFaults(IoOp::kWrite, FaultKind::kNone, 0);
  const RetryOutcome r =
      RunThroughFaults(IoOp::kWrite, FaultKind::kTransientError, 1);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.retries, 1);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.now, 0);
  EXPECT_EQ(r.completion, healthy.completion + DiskManager::kRetryBackoff);
}

TEST(DiskManagerRetryTest, WriteGivesUpAfterRetryLimit) {
  const RetryOutcome r = RunThroughFaults(
      IoOp::kWrite, FaultKind::kTransientError, DiskManager::kRetryLimit);
  EXPECT_TRUE(r.status.IsIoError()) << r.status.ToString();
  EXPECT_EQ(r.retries, DiskManager::kRetryLimit - 1);
  EXPECT_EQ(r.errors, 1);
  EXPECT_EQ(r.now, 0);
}

TEST(DiskManagerRetryTest, OfflineWriteIsNotRetried) {
  const RetryOutcome r =
      RunThroughFaults(IoOp::kWrite, FaultKind::kDeviceOffline, 1);
  EXPECT_TRUE(r.status.IsUnavailable()) << r.status.ToString();
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.errors, 1);
  EXPECT_EQ(r.now, 0);
}

TEST(FileDeviceTest, CreateWriteReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/turbobp_filedev_test.db";
  std::unique_ptr<FileDevice> dev;
  ASSERT_TRUE(FileDevice::Create(path, 16, 512, &dev).ok());
  EXPECT_EQ(dev->num_pages(), 16u);
  std::vector<uint8_t> in(512, 0x3C), out(512);
  dev->Write(7, 1, in, 0);
  dev->Read(7, 1, out, 0);
  EXPECT_EQ(in, out);
  ASSERT_TRUE(dev->Sync().ok());

  // Re-open and read the persisted content back.
  dev.reset();
  std::unique_ptr<FileDevice> reopened;
  ASSERT_TRUE(FileDevice::Open(path, 512, &reopened).ok());
  EXPECT_EQ(reopened->num_pages(), 16u);
  std::fill(out.begin(), out.end(), 0);
  reopened->Read(7, 1, out, 0);
  EXPECT_EQ(in, out);
  ::unlink(path.c_str());
}

TEST(FileDeviceTest, OpenMissingFileFails) {
  std::unique_ptr<FileDevice> dev;
  EXPECT_FALSE(FileDevice::Open("/nonexistent/nope.db", 512, &dev).ok());
}

}  // namespace
}  // namespace turbobp
