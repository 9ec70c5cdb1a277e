#include "storage/striped_array.h"

#include <gtest/gtest.h>

#include <cstring>

namespace turbobp {
namespace {

StripedDiskArray::Options SmallOptions() {
  StripedDiskArray::Options o;
  o.num_spindles = 4;
  o.stripe_pages = 2;
  return o;
}

TEST(StripedArrayTest, RoundTripAcrossStripes) {
  StripedDiskArray disks(64, 256, SmallOptions());
  std::vector<uint8_t> in(16 * 256), out(16 * 256);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i * 7);
  disks.Write(5, 16, in, 0);
  disks.Read(5, 16, out, 0);
  EXPECT_EQ(in, out);
}

TEST(StripedArrayTest, SinglePageRoundTrip) {
  StripedDiskArray disks(64, 256, SmallOptions());
  for (uint64_t p = 0; p < 64; ++p) {
    std::vector<uint8_t> in(256, static_cast<uint8_t>(p)), out(256);
    disks.Write(p, 1, in, 0);
    disks.Read(p, 1, out, 0);
    ASSERT_EQ(in, out) << "page " << p;
  }
}

TEST(StripedArrayTest, PagesSpreadOverAllSpindles) {
  StripedDiskArray disks(64, 256, SmallOptions());
  std::vector<uint8_t> buf(256);
  for (uint64_t p = 0; p < 64; ++p) disks.Write(p, 1, buf, 0);
  for (int s = 0; s < disks.num_spindles(); ++s) {
    EXPECT_EQ(disks.spindle(s).store().materialized_pages(), 16u)
        << "spindle " << s;
  }
}

TEST(StripedArrayTest, SpindleSnapshotsRestoreTheArrayOntoAFreshOne) {
  StripedDiskArray disks(64, 256, SmallOptions());
  std::vector<uint8_t> in(16 * 256), out(16 * 256);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i * 3);
  disks.Write(3, 16, in, 0);
  // One snapshot per spindle is the array's whole medium.
  std::vector<PageImage> snaps;
  for (int s = 0; s < disks.num_spindles(); ++s) {
    snaps.push_back(disks.spindle(s).store().image().Snapshot());
  }
  std::vector<uint8_t> later(256, 0xCD);
  disks.Write(5, 1, later, 0);

  StripedDiskArray fresh(64, 256, SmallOptions());
  for (int s = 0; s < fresh.num_spindles(); ++s) {
    fresh.spindle(s).store().image().Restore(snaps[s]);
  }
  fresh.Read(3, 16, out, 0);
  EXPECT_EQ(in, out);
}

TEST(StripedArrayTest, MultiPageReadUsesSpindlesInParallel) {
  StripedDiskArray disks(1 << 12, 8192, StripedDiskArray::Options());
  std::vector<uint8_t> buf(64 * 8192);
  // A 64-page request split over 8 spindles pays one seek plus 8 pages of
  // transfer per spindle, in parallel — well under the single-spindle cost
  // of one seek plus 64 transfers.
  const Time parallel = disks.Read(0, 64, buf, 0).time;
  StripedDiskArray::Options one;
  one.num_spindles = 1;
  one.stripe_pages = 8;
  StripedDiskArray single(1 << 12, 8192, one);
  const Time serial = single.Read(0, 64, buf, 0).time;
  EXPECT_LT(parallel, serial / 2);
  // And the parallel cost is within 10% of the analytic seek + 8 transfers.
  HddParams hdd;
  const Time expected = hdd.seek_read + 8 * hdd.transfer_read_per_page;
  EXPECT_NEAR(static_cast<double>(parallel), static_cast<double>(expected),
              static_cast<double>(expected) * 0.1);
}

TEST(StripedArrayTest, SynthesizerSeesLogicalPageIds) {
  StripedDiskArray disks(64, 256, SmallOptions());
  disks.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    std::memset(out.data(), static_cast<int>(page), out.size());
  });
  for (uint64_t p = 0; p < 64; ++p) {
    std::vector<uint8_t> out(256);
    disks.Read(p, 1, out, 0, /*charge=*/false);
    ASSERT_EQ(out[0], static_cast<uint8_t>(p)) << "page " << p;
    ASSERT_EQ(out[255], static_cast<uint8_t>(p));
  }
}

TEST(StripedArrayTest, QueueLengthAggregates) {
  StripedDiskArray disks(1 << 10, 8192, StripedDiskArray::Options());
  std::vector<uint8_t> buf(8192);
  for (int i = 0; i < 16; ++i) {
    disks.Read(static_cast<uint64_t>(i) * 97 % 1024, 1, buf, 0);
  }
  EXPECT_EQ(disks.QueueLength(0), 16);
  EXPECT_EQ(disks.QueueLength(Seconds(100)), 0);
}

TEST(StripedArrayTest, UnchargedIoConsumesNoDeviceTime) {
  StripedDiskArray disks(64, 256, SmallOptions());
  std::vector<uint8_t> buf(256);
  const Time t = disks.Read(0, 1, buf, 50, /*charge=*/false).time;
  EXPECT_EQ(t, 50);
  EXPECT_EQ(disks.TotalBusyTime(), 0);
}

TEST(StripedArrayTest, TotalCounters) {
  StripedDiskArray disks(64, 256, SmallOptions());
  std::vector<uint8_t> buf(4 * 256);
  disks.Read(0, 4, buf, 0);
  disks.Write(0, 2, buf, 0);
  EXPECT_EQ(disks.TotalBytes(IoOp::kRead), 4 * 256);
  EXPECT_EQ(disks.TotalBytes(IoOp::kWrite), 2 * 256);
  EXPECT_GT(disks.TotalBusyTime(), 0);
}

TEST(StripedArrayTest, EstimateReadTimeDelegates) {
  StripedDiskArray disks(64, 8192, StripedDiskArray::Options());
  EXPECT_GT(disks.EstimateReadTime(AccessKind::kRandom), Millis(5));
  EXPECT_LT(disks.EstimateReadTime(AccessKind::kSequential), Millis(1));
}

}  // namespace
}  // namespace turbobp
