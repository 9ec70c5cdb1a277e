#include "storage/page_image.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace turbobp {
namespace {

constexpr uint32_t kPage = 256;
constexpr uint64_t kChunk = PageImage::kChunkPages;

std::vector<uint8_t> Filled(uint32_t pages, uint8_t first) {
  std::vector<uint8_t> buf(static_cast<size_t>(pages) * kPage);
  for (uint32_t i = 0; i < pages; ++i) {
    std::memset(buf.data() + static_cast<size_t>(i) * kPage, first + i, kPage);
  }
  return buf;
}

std::vector<uint8_t> ReadPages(const PageImage& image, uint64_t first,
                               uint32_t pages) {
  std::vector<uint8_t> out(static_cast<size_t>(pages) * kPage);
  image.Read(first, pages, out);
  return out;
}

TEST(PageImageTest, TransfersSpanAChunkBoundary) {
  PageImage image(4 * kChunk, kPage);
  // Pages kChunk-2 .. kChunk+1: two in the first chunk, two in the second.
  const auto in = Filled(4, 10);
  image.Write(kChunk - 2, 4, in);
  EXPECT_EQ(ReadPages(image, kChunk - 2, 4), in);
  EXPECT_EQ(image.materialized_pages(), 4u);
  EXPECT_TRUE(image.IsMaterialized(kChunk - 1));
  EXPECT_TRUE(image.IsMaterialized(kChunk));
  EXPECT_FALSE(image.IsMaterialized(kChunk - 3));
  EXPECT_FALSE(image.IsMaterialized(kChunk + 2));
  // Rewriting a page does not count it twice.
  image.Write(kChunk, 1, Filled(1, 99));
  EXPECT_EQ(image.materialized_pages(), 4u);
  EXPECT_EQ(ReadPages(image, kChunk, 1), Filled(1, 99));
}

TEST(PageImageTest, UnwrittenPageInAnAllocatedChunkIsSynthesized) {
  PageImage image(2 * kChunk, kPage);
  image.SetSynthesizer([](uint64_t page, std::span<uint8_t> out) {
    std::memset(out.data(), static_cast<int>(page), out.size());
  });
  image.Write(5, 1, Filled(1, 0xAB));
  // Page 6 shares page 5's chunk, whose bytes are not zero-filled: the
  // bitmap, not the chunk, decides that 6 was never written.
  EXPECT_EQ(ReadPages(image, 6, 1), std::vector<uint8_t>(kPage, 6));
  EXPECT_EQ(ReadPages(image, 4, 3)[kPage], 0xAB);
  EXPECT_FALSE(image.IsMaterialized(6));
  EXPECT_EQ(image.pages_read(), 4u);
}

TEST(PageImageTest, WriteAfterSnapshotCopiesOnlyItsChunk) {
  PageImage image(4 * kChunk, kPage);
  image.Write(0, 1, Filled(1, 1));
  image.Write(kChunk, 1, Filled(1, 2));
  image.Write(2 * kChunk, 1, Filled(1, 3));

  const PageImage snap = image.Snapshot();
  EXPECT_EQ(image.chunks_copied(), 0u);
  image.Write(kChunk + 1, 1, Filled(1, 7));
  image.Write(kChunk, 1, Filled(1, 8));
  // Both writes landed in the second chunk: it was copied once.
  EXPECT_EQ(image.chunks_copied(), 1u);

  EXPECT_EQ(ReadPages(snap, kChunk, 1), Filled(1, 2));
  EXPECT_FALSE(snap.IsMaterialized(kChunk + 1));
  EXPECT_EQ(snap.materialized_pages(), 3u);
  EXPECT_EQ(ReadPages(image, kChunk, 1), Filled(1, 8));
  EXPECT_EQ(ReadPages(image, kChunk + 1, 1), Filled(1, 7));
  EXPECT_EQ(ReadPages(image, 0, 1), Filled(1, 1));
  EXPECT_EQ(image.materialized_pages(), 4u);
}

TEST(PageImageTest, RestoreReturnsToTheSnapshotAndKeepsTheSynthesizer) {
  PageImage image(2 * kChunk, kPage);
  image.SetSynthesizer([](uint64_t, std::span<uint8_t> out) {
    std::memset(out.data(), 0xEE, out.size());
  });
  image.Write(3, 2, Filled(2, 40));
  const PageImage snap = image.Snapshot();
  // A snapshot is content only: its never-written pages read as zeros.
  EXPECT_EQ(ReadPages(snap, 9, 1), std::vector<uint8_t>(kPage, 0));

  image.Write(3, 1, Filled(1, 50));
  image.Write(kChunk + 7, 1, Filled(1, 60));
  image.Restore(snap);
  EXPECT_EQ(ReadPages(image, 3, 2), Filled(2, 40));
  EXPECT_FALSE(image.IsMaterialized(kChunk + 7));
  EXPECT_EQ(ReadPages(image, kChunk + 7, 1), std::vector<uint8_t>(kPage, 0xEE));
  EXPECT_EQ(image.materialized_pages(), 2u);

  // The restored image shares the snapshot's chunks: writing it again
  // leaves the snapshot as it was.
  image.Write(4, 1, Filled(1, 70));
  EXPECT_EQ(ReadPages(snap, 4, 1), Filled(1, 41));
}

TEST(PageImageTest, ClearDropsWrittenPages) {
  PageImage image(kChunk, kPage);
  image.Write(1, 1, Filled(1, 5));
  image.Clear();
  EXPECT_EQ(image.materialized_pages(), 0u);
  EXPECT_EQ(ReadPages(image, 1, 1), std::vector<uint8_t>(kPage, 0));
}

}  // namespace
}  // namespace turbobp
