#ifndef TURBOBP_COMMON_COUNTER_LIST_H_
#define TURBOBP_COMMON_COUNTER_LIST_H_

#include <atomic>
#include <cstdint>

namespace turbobp {

// Counters declared once. A layer names its monotonic counters in one
// X-macro list and builds one struct template from it, which it
// instantiates twice: over LiveCounter for the relaxed atomics its hot path
// bumps, and over int64_t for the snapshot its stats() returns.
//
//   #define TURBOBP_FOO_COUNTERS(X) X(ops) X(hits) X(misses)
//   template <typename T>
//   struct FooCounters {
//     TURBOBP_COUNTER_SET(TURBOBP_FOO_COUNTERS)
//   };
//
// TURBOBP_COUNTER_SET declares one `T name{}` field per entry and a static
// ForEach(f, sets...) that calls f("name", sets.name...) per entry, in list
// order. The snapshot copy, the reset, the bench JSON keys and the tests
// all walk the list through ForEach, so adding a counter is one line.
// Gauges (values read from live state rather than accumulated) stay
// hand-written in the layer's stats().
#define TURBOBP_COUNTER_FIELD(name) T name{};
#define TURBOBP_COUNTER_VISIT(name) f(#name, sets.name...);
#define TURBOBP_COUNTER_SET(LIST)                                             \
  LIST(TURBOBP_COUNTER_FIELD)                                                 \
  template <typename F, typename... Sets>                                     \
  static void ForEach(F&& f, Sets&... sets) {                                 \
    LIST(TURBOBP_COUNTER_VISIT)                                               \
  }

using LiveCounter = std::atomic<int64_t>;

inline void Bump(LiveCounter& c, int64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

// Conservation protocol. A counter set whose first entry is `ops` counts
// operations that each land in one classification counter (hits, misses,
// ...). The classification is bumped first, then `ops` with release
// ordering; SnapshotCounters reads `ops` first with acquire ordering, so
// every snapshot sees all classifications of the operations it counts:
// the sum of the classifications is >= ops, with equality at quiescence.
template <typename Live>
void BumpClassified(Live& live, LiveCounter& classification) {
  classification.fetch_add(1, std::memory_order_relaxed);
  live.ops.fetch_add(1, std::memory_order_release);
}

// Copies every counter of `live` into `out`. The re-read of `ops` at the end
// of a pass upgrades the ordered single pass to a stable snapshot: `ops`
// unchanged means no classification ran while the counters were copied.
// Otherwise retry, bounded, because the ordered pass alone already keeps
// the conservation invariant.
template <typename Live, typename Snapshot>
void SnapshotCounters(const Live& live, Snapshot& out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const int64_t ops = live.ops.load(std::memory_order_acquire);
    Live::ForEach(
        [](const char*, const LiveCounter& c, int64_t& v) {
          v = c.load(std::memory_order_relaxed);
        },
        live, out);
    out.ops = ops;
    if (live.ops.load(std::memory_order_acquire) == ops) break;
  }
}

template <typename Live>
void ResetCounters(Live& live) {
  Live::ForEach(
      [](const char*, LiveCounter& c) {
        c.store(0, std::memory_order_relaxed);
      },
      live);
}

}  // namespace turbobp

#endif  // TURBOBP_COMMON_COUNTER_LIST_H_
