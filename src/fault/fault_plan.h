#ifndef TURBOBP_FAULT_FAULT_PLAN_H_
#define TURBOBP_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"

namespace turbobp {

// The ways a flash device misbehaves in this model, following the failure
// taxonomy of FaCE and "How to Write to SSDs": transient command errors,
// torn (partial) writes that report success, latent bit corruption
// discovered on read, latency excursions, and whole-device dropout.
enum class FaultKind : uint8_t {
  kNone = 0,
  kTransientError,  // op fails with kIoError; no data is transferred
  kTornWrite,       // write silently lands only a prefix, reports success
  kBitFlip,         // read delivers the data with one flipped bit
  kLatencySpike,    // op succeeds but completes late
  kDeviceOffline,   // device dies permanently starting at this op
  kStuckIo,         // op succeeds but hangs for stuck_delay (no error):
                    // the hung-request shape that only I/O deadlines catch
};

const char* ToString(FaultKind kind);

// A time-and-address-windowed fault schedule: while `begin <= now < end`
// and the operation's first page falls in [first_page, last_page], the
// window's rates ADD to the plan's base rates. Chaos-soak storms are built
// from these — burst phases target one partition's contiguous frame range
// with elevated rates, quiet phases between them let the self-healing
// machinery recover. Defaults make a window that is always active and
// covers the whole device.
struct FaultWindow {
  Time begin = 0;
  Time end = kTimeMax;
  uint64_t first_page = 0;
  uint64_t last_page = UINT64_MAX;
  double transient_error_rate = 0.0;
  double torn_write_rate = 0.0;
  double bit_flip_rate = 0.0;
  double latency_spike_rate = 0.0;
  double stuck_io_rate = 0.0;

  bool Covers(Time now, uint64_t page) const {
    return now >= begin && now < end && page >= first_page &&
           page <= last_page;
  }
};

// A deterministic, seedable schedule of faults for one FaultInjectingDevice.
// Faults are drawn per device operation from an Rng seeded with `seed`, so
// two runs with the same plan and the same operation sequence inject the
// same faults at the same operations — failures found in CI replay locally.
struct FaultPlan {
  uint64_t seed = 0x5EEDull;

  // Independent per-operation probabilities.
  double transient_error_rate = 0.0;  // reads and writes
  double torn_write_rate = 0.0;       // writes only
  double bit_flip_rate = 0.0;         // reads only
  double latency_spike_rate = 0.0;    // reads and writes
  Time latency_spike = Millis(50);
  // Stuck I/O (reads and writes): the op succeeds but completes stuck_delay
  // late — far beyond any latency spike, and with no error to retry on.
  // NOTE: a fifth Bernoulli is drawn per op iff the plan CAN produce stuck
  // faults (stuck_io_rate > 0 or windows present), so plans without them
  // keep their historical draw streams bit-identical.
  double stuck_io_rate = 0.0;
  Time stuck_delay = Seconds(2);

  // The device goes (and stays) offline at this 0-based operation index;
  // -1 means never.
  int64_t offline_at_op = -1;

  // Time/address-windowed fault storms; rates add to the base rates above
  // while a window covers the operation.
  std::vector<FaultWindow> windows;

  // Exact faults at exact operation indices; overrides the random draws.
  // Lets tests corrupt precisely the frame they are watching.
  std::map<int64_t, FaultKind> scripted;

  static FaultPlan Healthy() { return FaultPlan{}; }
};

// Injection counters, reported by FaultInjectingDevice::fault_stats().
struct FaultStats {
  int64_t ops = 0;
  int64_t transient_errors = 0;
  int64_t torn_writes = 0;  // tears that left the medium != what was acked
  int64_t bit_flips = 0;
  int64_t latency_spikes = 0;
  int64_t stuck_ios = 0;
  int64_t offline_rejects = 0;  // ops rejected after the device died
  bool offline = false;
};

}  // namespace turbobp

#endif  // TURBOBP_FAULT_FAULT_PLAN_H_
