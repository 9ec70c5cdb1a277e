#ifndef TURBOBP_STORAGE_PAGE_IMAGE_H_
#define TURBOBP_STORAGE_PAGE_IMAGE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "debug/latch_order_checker.h"

namespace turbobp {

// The bytes a simulated device's medium holds: every MemDevice (so every
// SimDevice, disk spindle, SSD and log device) keeps its pages in one.
//
// Pages live in fixed chunks of kChunkPages pages. A chunk is allocated the
// first time one of its pages is written, without zero-filling, so a
// sparsely written chunk makes only the OS pages it touched resident; a
// per-chunk bitmap records which pages were written. A page never written
// is generated on read by the synthesizer (zeros without one), so a "400GB"
// logical database costs only its written working set in RAM.
//
// Chunks are reference-counted and shared between an image and its
// snapshots: Snapshot() costs O(chunks) and copies no page bytes, and the
// first write to a shared chunk copies that chunk alone (copy-on-write).
// The crash harness captures each device at a crash instant this way and
// restores the capture onto a fresh device.
//
// Thread-safe: one device-class latch (innermost, kDevice) guards the
// chunk table; Read/Write hold it for the whole transfer, so a multi-page
// request is atomic with respect to other requests on the same image.
class PageImage {
 public:
  // Fills `out` with the initial (never-written) content of `page`.
  using Synthesizer = std::function<void(uint64_t page, std::span<uint8_t> out)>;

  static constexpr uint32_t kChunkPages = 64;

  PageImage(uint64_t num_pages, uint32_t page_bytes);
  // Transfers the whole image, synthesizer included (setup and capture
  // bookkeeping only: `other` must not be in use concurrently).
  PageImage(PageImage&& other) noexcept;
  PageImage(const PageImage&) = delete;
  PageImage& operator=(const PageImage&) = delete;
  PageImage& operator=(PageImage&&) = delete;

  uint64_t num_pages() const { return num_pages_; }
  uint32_t page_bytes() const { return page_bytes_; }

  void SetSynthesizer(Synthesizer s);

  // Copies `num_pages` pages starting at `first_page` out of / into the
  // image (num_pages * page_bytes() bytes). Bounds are the caller's to
  // check (MemDevice does).
  void Read(uint64_t first_page, uint32_t num_pages,
            std::span<uint8_t> out) const;
  void Write(uint64_t first_page, uint32_t num_pages,
             std::span<const uint8_t> data);

  // Whether the page has ever been written (vs. synthesized-on-read).
  bool IsMaterialized(uint64_t page) const;
  size_t materialized_pages() const;

  // Drops all written content (simulates reformatting the device).
  void Clear();

  // The written pages as of now, sharing every chunk with this image. A
  // snapshot is medium content only: it carries no synthesizer (that
  // belongs to the device, and may reference objects that die before the
  // snapshot does), so its never-written pages read as zeros.
  PageImage Snapshot() const;
  // Replaces this image's written pages with the snapshot's, sharing its
  // chunks; the synthesizer stays. The geometry must match.
  void Restore(const PageImage& snapshot);

  // Chunks copied because a write landed in a chunk a snapshot shared.
  uint64_t chunks_copied() const;
  // Pages served by Read, written or synthesized.
  uint64_t pages_read() const;

 private:
  // One chunk of page bytes plus the number of images sharing it.
  struct Chunk {
    explicit Chunk(size_t size)
        : bytes(std::make_unique_for_overwrite<uint8_t[]>(size)) {}
    std::atomic<uint32_t> refs{1};
    std::unique_ptr<uint8_t[]> bytes;
  };

  // A counted reference to one chunk (null until the chunk is allocated).
  // The count is intrusive rather than a shared_ptr's because the
  // exclusivity test must be an acquire load: see exclusive().
  class ChunkRef {
   public:
    ChunkRef() = default;
    explicit ChunkRef(size_t size)
        : chunk_(new Chunk(size)) {}  // lint: allow(raw-new) counted below
    ChunkRef(const ChunkRef& other) : chunk_(other.chunk_) {
      if (chunk_ != nullptr) {
        chunk_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ChunkRef(ChunkRef&& other) noexcept
        : chunk_(std::exchange(other.chunk_, nullptr)) {}
    ChunkRef& operator=(ChunkRef other) noexcept {
      std::swap(chunk_, other.chunk_);
      return *this;
    }
    ~ChunkRef();

    explicit operator bool() const { return chunk_ != nullptr; }
    uint8_t* get() const { return chunk_->bytes.get(); }
    // No other image holds the chunk, so a write may modify it in place.
    // The acquire pairs with the release in ~ChunkRef: every read the last
    // other holder made of the chunk happens before that write.
    bool exclusive() const {
      return chunk_->refs.load(std::memory_order_acquire) == 1;
    }

   private:
    Chunk* chunk_ = nullptr;
  };

  // What a snapshot shares: the chunk table and the written-page bitmap
  // (one word per chunk: kChunkPages == 64).
  struct Content {
    std::vector<ChunkRef> chunks;
    std::vector<uint64_t> written;
  };
  static_assert(kChunkPages == 64, "one bitmap word per chunk");

  PageImage(uint64_t num_pages, uint32_t page_bytes, Content content);

  // A chunk table with nothing written, sized for this geometry.
  Content EmptyContent() const;
  // Copy of `content_` taken under the latch.
  Content CopyContent() const;
  size_t chunk_bytes() const {
    return static_cast<size_t>(kChunkPages) * page_bytes_;
  }

  const uint64_t num_pages_;
  const uint32_t page_bytes_;
  Synthesizer synthesizer_;
  mutable TrackedMutex<LatchClass::kDevice> mu_;
  Content content_ TURBOBP_GUARDED_BY(mu_);
  uint64_t chunks_copied_ TURBOBP_GUARDED_BY(mu_) = 0;
  mutable uint64_t pages_read_ TURBOBP_GUARDED_BY(mu_) = 0;
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_PAGE_IMAGE_H_
