#ifndef TURBOBP_STORAGE_MEM_DEVICE_H_
#define TURBOBP_STORAGE_MEM_DEVICE_H_

#include "storage/page_image.h"
#include "storage/storage_device.h"

namespace turbobp {

// In-memory page store with zero service time. Serves three roles:
//   * the correctness substrate for unit tests,
//   * the backing store of SimDevice (which adds a latency model),
//   * a lazily-materialized store: pages never written are synthesized on
//     first read by a caller-provided function, so a "400GB" logical
//     database costs only its written working set in RAM.
// The medium is one PageImage; image() is how the crash harness snapshots
// and restores it.
class MemDevice : public StorageDevice {
 public:
  using Synthesizer = PageImage::Synthesizer;

  MemDevice(uint64_t num_pages, uint32_t page_bytes);

  void SetSynthesizer(Synthesizer s) { image_.SetSynthesizer(std::move(s)); }

  uint64_t num_pages() const override { return image_.num_pages(); }
  uint32_t page_bytes() const override { return image_.page_bytes(); }

  IoResult Read(uint64_t first_page, uint32_t num_pages,
                std::span<uint8_t> out, Time now, bool charge = true) override;
  IoResult Write(uint64_t first_page, uint32_t num_pages,
                 std::span<const uint8_t> data, Time now,
                 bool charge = true) override;

  // Whether the page has ever been written (vs. synthesized-on-read).
  bool IsMaterialized(uint64_t page) const {
    return image_.IsMaterialized(page);
  }
  size_t materialized_pages() const { return image_.materialized_pages(); }

  PageImage& image() { return image_; }

 private:
  PageImage image_;
};

}  // namespace turbobp

#endif  // TURBOBP_STORAGE_MEM_DEVICE_H_
