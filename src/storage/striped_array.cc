#include "storage/striped_array.h"

#include <algorithm>

#include "common/status.h"

namespace turbobp {

StripedDiskArray::StripedDiskArray(uint64_t num_pages, uint32_t page_bytes,
                                   const Options& options)
    : num_pages_(num_pages),
      page_bytes_(page_bytes),
      stripe_pages_(options.stripe_pages) {
  TURBOBP_CHECK(options.num_spindles > 0);
  TURBOBP_CHECK(options.stripe_pages > 0);
  const uint64_t per_spindle =
      (num_pages + options.num_spindles - 1) / options.num_spindles +
      stripe_pages_;
  HddParams hdd = options.hdd;
  hdd.page_bytes = page_bytes;
  for (int i = 0; i < options.num_spindles; ++i) {
    spindles_.push_back(std::make_unique<SimDevice>(
        per_spindle, page_bytes, std::make_unique<HddModel>(hdd)));
  }
}

StripedDiskArray::Mapping StripedDiskArray::Map(uint64_t logical_page) const {
  const uint64_t stripe_index = logical_page / stripe_pages_;
  const uint64_t offset = logical_page % stripe_pages_;
  const int spindle = static_cast<int>(stripe_index % spindles_.size());
  const uint64_t row = stripe_index / spindles_.size();
  return Mapping{spindle, row * stripe_pages_ + offset};
}

template <typename Fn>
void StripedDiskArray::ForEachRun(uint64_t first, uint32_t n, Fn&& fn) const {
  uint32_t done = 0;
  while (done < n) {
    const uint64_t logical = first + done;
    const Mapping m = Map(logical);
    // Run extends to the end of the current stripe unit at most.
    const uint32_t within = static_cast<uint32_t>(logical % stripe_pages_);
    const uint32_t run = std::min<uint32_t>(n - done, stripe_pages_ - within);
    fn(m.spindle, m.local_page, run, done);
    done += run;
  }
}

IoResult StripedDiskArray::Read(uint64_t first_page, uint32_t num_pages,
                                std::span<uint8_t> out, Time now, bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= num_pages_);
  // Sub-requests proceed in parallel: completion is the latest
  // sub-completion, and the first failing spindle reports for the stripe.
  IoResult agg{now, Status::Ok()};
  ForEachRun(first_page, num_pages,
             [&](int spindle, uint64_t local, uint32_t count, uint32_t off) {
               const IoResult r = spindles_[spindle]->Read(
                   local, count,
                   out.subspan(static_cast<size_t>(off) * page_bytes_,
                               static_cast<size_t>(count) * page_bytes_),
                   now, charge);
               agg.time = std::max(agg.time, r.time);
               if (agg.ok() && !r.ok()) agg.status = r.status;
             });
  return agg;
}

IoResult StripedDiskArray::Write(uint64_t first_page, uint32_t num_pages,
                                 std::span<const uint8_t> data, Time now,
                                 bool charge) {
  TURBOBP_CHECK(first_page + num_pages <= num_pages_);
  IoResult agg{now, Status::Ok()};
  ForEachRun(first_page, num_pages,
             [&](int spindle, uint64_t local, uint32_t count, uint32_t off) {
               const IoResult r = spindles_[spindle]->Write(
                   local, count,
                   data.subspan(static_cast<size_t>(off) * page_bytes_,
                                static_cast<size_t>(count) * page_bytes_),
                   now, charge);
               agg.time = std::max(agg.time, r.time);
               if (agg.ok() && !r.ok()) agg.status = r.status;
             });
  return agg;
}

int StripedDiskArray::QueueLength(Time now) {
  int total = 0;
  for (auto& s : spindles_) total += s->QueueLength(now);
  return total;
}

Time StripedDiskArray::EstimateReadTime(AccessKind kind) const {
  return spindles_[0]->EstimateReadTime(kind);
}

void StripedDiskArray::AttachTraffic(TimeSeries* read_bytes,
                                     TimeSeries* write_bytes) {
  for (auto& s : spindles_) s->timeline().AttachTraffic(read_bytes, write_bytes);
}

int64_t StripedDiskArray::TotalRequests(IoOp op) const {
  int64_t total = 0;
  for (const auto& s : spindles_) {
    total += const_cast<SimDevice&>(*s).timeline().num_requests(op);
  }
  return total;
}

int64_t StripedDiskArray::TotalBytes(IoOp op) const {
  int64_t total = 0;
  for (const auto& s : spindles_) {
    total += const_cast<SimDevice&>(*s).timeline().bytes(op);
  }
  return total;
}

Time StripedDiskArray::TotalBusyTime() const {
  Time total = 0;
  for (const auto& s : spindles_) {
    total += const_cast<SimDevice&>(*s).timeline().busy_time();
  }
  return total;
}

void StripedDiskArray::SetSynthesizer(MemDevice::Synthesizer s) {
  const uint64_t n = spindles_.size();
  const uint32_t unit = stripe_pages_;
  for (uint64_t i = 0; i < n; ++i) {
    // Translate the spindle-local page id back to the logical page id the
    // caller's synthesizer expects.
    spindles_[i]->store().SetSynthesizer(
        [s, i, n, unit](uint64_t local, std::span<uint8_t> out) {
          const uint64_t row = local / unit;
          const uint64_t offset = local % unit;
          const uint64_t stripe_index = row * n + i;
          s(stripe_index * unit + offset, out);
        });
  }
}

}  // namespace turbobp
