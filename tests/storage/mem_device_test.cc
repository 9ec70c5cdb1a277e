#include "storage/mem_device.h"

#include <gtest/gtest.h>

#include <cstring>

namespace turbobp {
namespace {

TEST(MemDeviceTest, ReadBackWhatWasWritten) {
  MemDevice dev(16, 512);
  std::vector<uint8_t> in(512, 0xAB), out(512);
  dev.Write(3, 1, in, 0);
  dev.Read(3, 1, out, 0);
  EXPECT_EQ(in, out);
}

TEST(MemDeviceTest, UnwrittenPagesAreZeroWithoutSynthesizer) {
  MemDevice dev(16, 512);
  std::vector<uint8_t> out(512, 0xFF);
  dev.Read(5, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(MemDeviceTest, SynthesizerMaterializesOnRead) {
  MemDevice dev(16, 512);
  dev.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    std::memset(out.data(), static_cast<int>(page), out.size());
  });
  std::vector<uint8_t> out(512);
  dev.Read(7, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(512, 7));
  // Reads do not materialize: only writes occupy memory.
  EXPECT_FALSE(dev.IsMaterialized(7));
}

TEST(MemDeviceTest, WrittenContentShadowsSynthesizer) {
  MemDevice dev(16, 512);
  dev.SetSynthesizer([](uint64_t, std::span<uint8_t> out) {
    std::memset(out.data(), 0xEE, out.size());
  });
  std::vector<uint8_t> in(512, 0x11), out(512);
  dev.Write(2, 1, in, 0);
  dev.Read(2, 1, out, 0);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(dev.IsMaterialized(2));
}

TEST(MemDeviceTest, MultiPageTransfers) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> in(4 * 256);
  for (size_t i = 0; i < in.size(); ++i) in[i] = static_cast<uint8_t>(i);
  dev.Write(4, 4, in, 0);
  std::vector<uint8_t> out(4 * 256);
  dev.Read(4, 4, out, 0);
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.materialized_pages(), 4u);
}

TEST(MemDeviceTest, ZeroServiceTime) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> buf(256);
  EXPECT_EQ(dev.Read(0, 1, buf, 1234).time, 1234);
  EXPECT_EQ(dev.Write(0, 1, buf, 99).time, 99);
}

TEST(MemDeviceTest, ClearDropsContent) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> in(256, 0x77), out(256);
  dev.Write(0, 1, in, 0);
  dev.image().Clear();
  EXPECT_EQ(dev.materialized_pages(), 0u);
  dev.Read(0, 1, out, 0);
  EXPECT_EQ(out, std::vector<uint8_t>(256, 0));
}

TEST(MemDeviceTest, ImageSnapshotRestoresTheDeviceContent) {
  MemDevice dev(16, 256);
  std::vector<uint8_t> in(256, 0x31), other(256, 0x32), out(256);
  dev.Write(4, 1, in, 0);
  const PageImage snap = dev.image().Snapshot();
  dev.Write(4, 1, other, 0);
  dev.Write(9, 1, other, 0);
  dev.image().Restore(snap);
  dev.Read(4, 1, out, 0);
  EXPECT_EQ(out, in);
  EXPECT_FALSE(dev.IsMaterialized(9));
  EXPECT_EQ(dev.materialized_pages(), 1u);
}

TEST(MemDeviceDeathTest, OutOfRangeAccessPanics) {
  MemDevice dev(4, 256);
  std::vector<uint8_t> buf(256);
  EXPECT_DEATH(dev.Read(4, 1, buf, 0), "num_pages");
  EXPECT_DEATH(dev.Write(3, 2, buf, 0), "");
}

}  // namespace
}  // namespace turbobp
