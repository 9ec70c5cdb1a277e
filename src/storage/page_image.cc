#include "storage/page_image.h"

#include <bit>
#include <cstring>

#include "common/status.h"

namespace turbobp {

PageImage::ChunkRef::~ChunkRef() {
  if (chunk_ != nullptr &&
      chunk_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete chunk_;  // lint: allow(raw-new) the last reference
  }
}

PageImage::PageImage(uint64_t num_pages, uint32_t page_bytes)
    : num_pages_(num_pages),
      page_bytes_(page_bytes),
      content_(EmptyContent()) {
  TURBOBP_CHECK(page_bytes > 0);
}

PageImage::PageImage(uint64_t num_pages, uint32_t page_bytes, Content content)
    : num_pages_(num_pages),
      page_bytes_(page_bytes),
      content_(std::move(content)) {}

PageImage::PageImage(PageImage&& other) noexcept
    : num_pages_(other.num_pages_),
      page_bytes_(other.page_bytes_),
      synthesizer_(std::move(other.synthesizer_)) {
  TrackedLockGuard lock(other.mu_);
  content_ = std::move(other.content_);
  chunks_copied_ = other.chunks_copied_;
  pages_read_ = other.pages_read_;
}

void PageImage::SetSynthesizer(Synthesizer s) { synthesizer_ = std::move(s); }

void PageImage::Read(uint64_t first_page, uint32_t num_pages,
                     std::span<uint8_t> out) const {
  TrackedLockGuard lock(mu_);
  pages_read_ += num_pages;
  for (uint32_t i = 0; i < num_pages; ++i) {
    const uint64_t page = first_page + i;
    const uint64_t c = page / kChunkPages;
    const uint32_t slot = static_cast<uint32_t>(page % kChunkPages);
    uint8_t* dst = out.data() + static_cast<size_t>(i) * page_bytes_;
    if ((content_.written[c] >> slot) & 1) {
      std::memcpy(dst,
                  content_.chunks[c].get() +
                      static_cast<size_t>(slot) * page_bytes_,
                  page_bytes_);
    } else if (synthesizer_) {
      synthesizer_(page, std::span<uint8_t>(dst, page_bytes_));
    } else {
      std::memset(dst, 0, page_bytes_);
    }
  }
}

void PageImage::Write(uint64_t first_page, uint32_t num_pages,
                      std::span<const uint8_t> data) {
  TrackedLockGuard lock(mu_);
  for (uint32_t i = 0; i < num_pages; ++i) {
    const uint64_t page = first_page + i;
    const uint64_t c = page / kChunkPages;
    const uint32_t slot = static_cast<uint32_t>(page % kChunkPages);
    ChunkRef& chunk = content_.chunks[c];
    uint64_t& written = content_.written[c];
    if (!chunk) {
      chunk = ChunkRef(chunk_bytes());
    } else if (!chunk.exclusive()) {
      // A snapshot shares this chunk: give the image its own copy. Only
      // the written pages are copied, so a sparse chunk stays sparse.
      ChunkRef own(chunk_bytes());
      for (uint64_t bits = written; bits != 0; bits &= bits - 1) {
        const size_t at =
            static_cast<size_t>(std::countr_zero(bits)) * page_bytes_;
        std::memcpy(own.get() + at, chunk.get() + at, page_bytes_);
      }
      chunk = std::move(own);
      ++chunks_copied_;
    }
    std::memcpy(chunk.get() + static_cast<size_t>(slot) * page_bytes_,
                data.data() + static_cast<size_t>(i) * page_bytes_,
                page_bytes_);
    written |= uint64_t{1} << slot;
  }
}

bool PageImage::IsMaterialized(uint64_t page) const {
  TrackedLockGuard lock(mu_);
  return (content_.written[page / kChunkPages] >> (page % kChunkPages)) & 1;
}

size_t PageImage::materialized_pages() const {
  TrackedLockGuard lock(mu_);
  size_t pages = 0;
  for (const uint64_t bits : content_.written) pages += std::popcount(bits);
  return pages;
}

void PageImage::Clear() {
  Content empty = EmptyContent();
  TrackedLockGuard lock(mu_);
  std::swap(content_, empty);
}

PageImage::Content PageImage::EmptyContent() const {
  const uint64_t chunks = (num_pages_ + kChunkPages - 1) / kChunkPages;
  Content empty;
  empty.chunks.resize(chunks);
  empty.written.resize(chunks, 0);
  return empty;
}

PageImage::Content PageImage::CopyContent() const {
  TrackedLockGuard lock(mu_);
  return content_;
}

PageImage PageImage::Snapshot() const {
  return PageImage(num_pages_, page_bytes_, CopyContent());
}

void PageImage::Restore(const PageImage& snapshot) {
  TURBOBP_CHECK(snapshot.num_pages_ == num_pages_ &&
                snapshot.page_bytes_ == page_bytes_);
  // Copied under the snapshot's latch, installed under ours: the two
  // device-class latches are never held together.
  Content copy = snapshot.CopyContent();
  TrackedLockGuard lock(mu_);
  std::swap(content_, copy);
}

uint64_t PageImage::chunks_copied() const {
  TrackedLockGuard lock(mu_);
  return chunks_copied_;
}

uint64_t PageImage::pages_read() const {
  TrackedLockGuard lock(mu_);
  return pages_read_;
}

}  // namespace turbobp
