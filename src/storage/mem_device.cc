#include "storage/mem_device.h"

#include "common/status.h"

namespace turbobp {

MemDevice::MemDevice(uint64_t num_pages, uint32_t page_bytes)
    : image_(num_pages, page_bytes) {}

IoResult MemDevice::Read(uint64_t first_page, uint32_t num_pages,
                         std::span<uint8_t> out, Time now, bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= image_.num_pages());
  TURBOBP_CHECK(out.size() >=
                static_cast<size_t>(num_pages) * image_.page_bytes());
  image_.Read(first_page, num_pages, out);
  return IoResult{now, Status::Ok()};
}

IoResult MemDevice::Write(uint64_t first_page, uint32_t num_pages,
                          std::span<const uint8_t> data, Time now,
                          bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= image_.num_pages());
  TURBOBP_CHECK(data.size() >=
                static_cast<size_t>(num_pages) * image_.page_bytes());
  image_.Write(first_page, num_pages, data);
  return IoResult{now, Status::Ok()};
}

}  // namespace turbobp
