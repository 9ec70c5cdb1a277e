#ifndef TURBOBP_FAULT_CRASH_POINT_H_
#define TURBOBP_FAULT_CRASH_POINT_H_

#include <atomic>

namespace turbobp {

// Crash-point instrumentation: TURBOBP_CRASH_POINT("name") marks a
// durability-ordering edge (a point where the set of crash-surviving bytes
// changes — WAL flush, checkpoint stage, cleaner copy, page write). The
// torture harness (src/fault/crash_harness.h) arms an observer and, at the
// k-th hit of a chosen point, snapshots the durable state exactly as a
// power cut at that instant would leave it; recovery then runs over the
// snapshot and is checked against a workload oracle.
//
// Disarmed cost is one relaxed-consistency atomic load and a predicted
// branch, negligible next to the latching and memcpy on every instrumented
// path, so the macro stays on in default (Release) builds and the quick
// torture subset runs in the regular ctest suite. Benchmark builds that
// want the last nanometer compile it out with -DTURBOBP_CRASH_POINTS=OFF.
class CrashPointObserver {
 public:
  virtual ~CrashPointObserver() = default;

  // Called synchronously at every crash point while armed, possibly with
  // engine latches held (the WAL latch at wal/* points, the buffer-pool
  // latch at bp/* points, a partition latch at ssd/* points). The observer
  // must only capture state through lock-free accessors (e.g.
  // LogManager::durable_lsn) or latches ordered after the holder's
  // class — it must never re-enter the engine.
  virtual void OnCrashPoint(const char* name) = 0;
};

namespace detail {
extern std::atomic<CrashPointObserver*> g_crash_observer;
}  // namespace detail

inline void CrashPointHit(const char* name) {
  CrashPointObserver* obs =
      detail::g_crash_observer.load(std::memory_order_acquire);
  if (obs != nullptr) obs->OnCrashPoint(name);
}

// Arms `observer` globally (nullptr disarms). Single-process simulation:
// the caller owns exclusivity; ScopedCrashArm is the usual way in.
void ArmCrashPoints(CrashPointObserver* observer);

// Whether this build compiled the crash points in (TURBOBP_CRASH_POINTS).
bool CrashPointsCompiledIn();

class ScopedCrashArm {
 public:
  explicit ScopedCrashArm(CrashPointObserver* observer) {
    ArmCrashPoints(observer);
  }
  ~ScopedCrashArm() { ArmCrashPoints(nullptr); }
  ScopedCrashArm(const ScopedCrashArm&) = delete;
  ScopedCrashArm& operator=(const ScopedCrashArm&) = delete;
};

}  // namespace turbobp

#ifdef TURBOBP_CRASH_POINTS
#define TURBOBP_CRASH_POINT(name) ::turbobp::CrashPointHit(name)
#else
#define TURBOBP_CRASH_POINT(name) \
  do {                            \
  } while (0)
#endif

#endif  // TURBOBP_FAULT_CRASH_POINT_H_
