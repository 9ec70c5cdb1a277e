#include "fault/fault_injecting_device.h"

#include <cstring>
#include <vector>

#include "common/status.h"

namespace turbobp {

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTransientError: return "transient-error";
    case FaultKind::kTornWrite: return "torn-write";
    case FaultKind::kBitFlip: return "bit-flip";
    case FaultKind::kLatencySpike: return "latency-spike";
    case FaultKind::kDeviceOffline: return "device-offline";
    case FaultKind::kStuckIo: return "stuck-io";
  }
  return "unknown";
}

FaultInjectingDevice::FaultInjectingDevice(StorageDevice* base,
                                           const FaultPlan& plan)
    : base_(base), plan_(plan), rng_(plan.seed) {
  TURBOBP_CHECK(base != nullptr);
}

FaultKind FaultInjectingDevice::NextFault(IoOp op, Time now,
                                          uint64_t first_page) {
  const int64_t index = op_index_++;
  ++stats_.ops;
  FaultKind kind = FaultKind::kNone;
  if (auto it = plan_.scripted.find(index); it != plan_.scripted.end()) {
    kind = it->second;
  } else if (plan_.offline_at_op >= 0 && index >= plan_.offline_at_op) {
    kind = FaultKind::kDeviceOffline;
  } else {
    // Effective rates: base rates plus every window covering (now, page).
    double transient_rate = plan_.transient_error_rate;
    double torn_rate = plan_.torn_write_rate;
    double flip_rate = plan_.bit_flip_rate;
    double spike_rate = plan_.latency_spike_rate;
    double stuck_rate = plan_.stuck_io_rate;
    for (const FaultWindow& w : plan_.windows) {
      if (!w.Covers(now, first_page)) continue;
      transient_rate += w.transient_error_rate;
      torn_rate += w.torn_write_rate;
      flip_rate += w.bit_flip_rate;
      spike_rate += w.latency_spike_rate;
      stuck_rate += w.stuck_io_rate;
    }
    // Fixed draw order per op keeps the stream deterministic. The stuck-I/O
    // Bernoulli exists only for plans that can produce stuck faults, so
    // pre-existing plans keep their historical draw streams bit-identical.
    const bool can_stick = plan_.stuck_io_rate > 0 || !plan_.windows.empty();
    const bool transient = rng_.Bernoulli(transient_rate);
    const bool torn = op == IoOp::kWrite && rng_.Bernoulli(torn_rate);
    const bool flip = op == IoOp::kRead && rng_.Bernoulli(flip_rate);
    const bool spike = rng_.Bernoulli(spike_rate);
    const bool stuck = can_stick && rng_.Bernoulli(stuck_rate);
    if (transient) {
      kind = FaultKind::kTransientError;
    } else if (torn) {
      kind = FaultKind::kTornWrite;
    } else if (flip) {
      kind = FaultKind::kBitFlip;
    } else if (spike) {
      kind = FaultKind::kLatencySpike;
    } else if (stuck) {
      kind = FaultKind::kStuckIo;
    }
  }
  switch (kind) {
    case FaultKind::kNone: break;
    case FaultKind::kTransientError: ++stats_.transient_errors; break;
    case FaultKind::kTornWrite: break;  // counted by Write, if it tears
    case FaultKind::kBitFlip: ++stats_.bit_flips; break;
    case FaultKind::kLatencySpike: ++stats_.latency_spikes; break;
    case FaultKind::kStuckIo: ++stats_.stuck_ios; break;
    case FaultKind::kDeviceOffline:
      offline_ = true;
      stats_.offline = true;
      break;
  }
  return kind;
}

IoResult FaultInjectingDevice::Read(uint64_t first_page, uint32_t num_pages,
                                    std::span<uint8_t> out, Time now,
                                    bool charge) {
  TrackedLockGuard lock(mu_);
  if (offline_) {
    ++stats_.offline_rejects;
    return IoResult{now, Status::Unavailable("ssd offline")};
  }
  // The loader's uncharged population traffic bypasses injection so the
  // deterministic fault stream covers only modeled operations.
  if (!charge) return base_->Read(first_page, num_pages, out, now, charge);

  const FaultKind fault = NextFault(IoOp::kRead, now, first_page);
  if (fault == FaultKind::kTransientError) {
    return IoResult{now, Status::IoError("injected transient read error")};
  }
  if (fault == FaultKind::kDeviceOffline) {
    return IoResult{now, Status::Unavailable("ssd offline")};
  }
  IoResult res = base_->Read(first_page, num_pages, out, now, charge);
  if (!res.ok()) return res;
  if (fault == FaultKind::kBitFlip) {
    // Latent corruption: one flipped bit anywhere in the transferred data.
    // Page checksums (PageView::VerifyChecksum) are what must catch this.
    const size_t nbytes = static_cast<size_t>(num_pages) * page_bytes();
    const size_t byte = static_cast<size_t>(rng_.Uniform(nbytes));
    out[byte] ^= static_cast<uint8_t>(1u << rng_.Uniform(8));
  }
  if (fault == FaultKind::kLatencySpike) res.time += plan_.latency_spike;
  if (fault == FaultKind::kStuckIo) res.time += plan_.stuck_delay;
  return res;
}

IoResult FaultInjectingDevice::Write(uint64_t first_page, uint32_t num_pages,
                                     std::span<const uint8_t> data, Time now,
                                     bool charge) {
  TrackedLockGuard lock(mu_);
  if (offline_) {
    ++stats_.offline_rejects;
    return IoResult{now, Status::Unavailable("ssd offline")};
  }
  if (!charge) return base_->Write(first_page, num_pages, data, now, charge);

  const FaultKind fault = NextFault(IoOp::kWrite, now, first_page);
  if (fault == FaultKind::kTransientError) {
    return IoResult{now, Status::IoError("injected transient write error")};
  }
  if (fault == FaultKind::kDeviceOffline) {
    return IoResult{now, Status::Unavailable("ssd offline")};
  }
  if (fault == FaultKind::kTornWrite) {
    // The tear is silent: the device acks the request but only a prefix
    // reaches the medium. Single-page writes land their first half over the
    // old content (a classic torn sector); multi-page writes land a prefix
    // of whole pages.
    const uint32_t pb = page_bytes();
    if (num_pages == 1) {
      std::vector<uint8_t> merged(pb);
      // Merge source is the old on-medium content. If even that read fails
      // the tear proceeds over the zeroed buffer — the fault being modeled
      // is corruption, so a worse tear is still a valid tear.
      (void)base_->Read(first_page, 1, std::span<uint8_t>(merged), now,
                        /*charge=*/false);
      std::memcpy(merged.data(), data.data(), pb / 2);
      // Old content whose second half already matches leaves the medium
      // holding exactly what was acked: no tear happened.
      if (std::memcmp(merged.data(), data.data(), pb) != 0) {
        ++stats_.torn_writes;
      }
      return base_->Write(first_page, 1,
                          std::span<const uint8_t>(merged.data(), pb), now,
                          charge);
    }
    ++stats_.torn_writes;
    const uint32_t landed = static_cast<uint32_t>(rng_.Uniform(num_pages));
    if (landed == 0) return IoResult{now, Status::Ok()};
    return base_->Write(first_page, landed,
                        data.subspan(0, static_cast<size_t>(landed) * pb), now,
                        charge);
  }
  IoResult res = base_->Write(first_page, num_pages, data, now, charge);
  if (res.ok() && fault == FaultKind::kLatencySpike) {
    res.time += plan_.latency_spike;
  }
  if (res.ok() && fault == FaultKind::kStuckIo) {
    res.time += plan_.stuck_delay;
  }
  return res;
}

void FaultInjectingDevice::ForceOffline() {
  TrackedLockGuard lock(mu_);
  offline_ = true;
  stats_.offline = true;
}

bool FaultInjectingDevice::offline() const {
  TrackedLockGuard lock(mu_);
  return offline_;
}

FaultStats FaultInjectingDevice::fault_stats() const {
  TrackedLockGuard lock(mu_);
  return stats_;
}

}  // namespace turbobp
