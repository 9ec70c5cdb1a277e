// perfbench_driver: one pass of one repository-benchmark workload.
//
// A pass sets the workload up once (timed), runs its timed window, drains,
// runs the correctness checks and prints one JSON object on stdout. With --traced 1 it also times every
// call the benchmark makes into a layer (transactions, TPC-H queries, and
// post-run probes of the buffer, SSD-manager and checksum layers) and writes
// those spans to --trace-out. run.py runs several passes per invocation and
// turns them into the metrics named in BENCHMARK.json.
//
// Everything runs in sim mode on one OS thread, so every virtual-time value
// and every counter is a function of the workload and the seed alone.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "debug/invariant_auditor.h"
#include "turbobp.h"

namespace turbobp {
namespace perfbench {
namespace {

constexpr int kTxnTypes = 5;
constexpr const char* kTxnNames[kTxnTypes] = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};

int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Nearest-rank percentile over exact samples (p in (0, 1]).
double Percentile(std::vector<Time> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return static_cast<double>(samples[std::max<size_t>(rank, 1) - 1]);
}

// ------------------------------------------------------------------ tracing

struct Span {
  int64_t id;
  int64_t parent;
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t op;  // transaction sequence number or query number; -1 if none
};

// In-memory span log, written out once at exit. Disabled tracers record
// nothing and never read the host clock.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int64_t Add(int64_t parent, std::string name, int64_t start_ns,
              int64_t end_ns, int64_t op = -1) {
    if (!on_) return 0;
    const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
    spans_.push_back({id, parent, std::move(name), start_ns, end_ns, op});
    return id;
  }
  // Reserves an id for a span whose end is not known yet (children are
  // recorded against it first); Close fills it in.
  int64_t Open(int64_t parent, std::string name) {
    return on_ ? Add(parent, std::move(name), HostNs(), 0) : 0;
  }
  void Close(int64_t id) {
    if (on_ && id > 0) spans_[static_cast<size_t>(id - 1)].end_ns = HostNs();
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"op\":%lld}\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.op));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------- JSON output

class JsonObject {
 public:
  // A non-finite value is written as null, which run.py rejects.
  void Add(const std::string& key, double v) {
    if (!std::isfinite(v)) {
      Raw(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Add(const std::string& key, int64_t v) { Raw(key, std::to_string(v)); }
  void Add(const std::string& key, const JsonObject& o) { Raw(key, o.str()); }
  void AddString(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ",";
    s += "\"";
    for (char c : v[i]) s += (c == '"' || c == '\\') ? '\'' : c;
    s += "\"";
  }
  return s + "]";
}

// ------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  bool quick = false;
  std::string trace_out;
};

// One constructed, populated and warmed system. Sizes are the figure benches'
// paper scale (bench_util.h): the paper's hardware at 1/400 in 1 KB pages.
struct Setup {
  std::unique_ptr<DbSystem> system;
  std::unique_ptr<Database> db;
  std::unique_ptr<TpccWorkload> tpcc;
  std::unique_ptr<TpchWorkload> tpch;
  int tpch_streams = 0;
  Time duration = 0;  // TPC-C timed window in virtual time
};

std::unique_ptr<Setup> MakeSetup(const Options& opt) {
  auto s = std::make_unique<Setup>();
  if (opt.workload == "tpcc-lc") {
    // Fig 5(b) scale: 2K warehouses = 65,536 pages, 10x the pool and 1.43x
    // the SSD. LC with lambda = 50%, checkpoints off (paper Section 4.1.2).
    const uint64_t target = bench::kTpccPages[1];
    const TpccConfig c = bench::TpccForPages(32, target, opt.seed);
    const uint64_t pages = std::max<uint64_t>(
        TpccWorkload::EstimateDbPages(c, bench::kPageBytes), target);
    s->system = std::make_unique<DbSystem>(
        bench::BaseSystem(SsdDesign::kLazyCleaning, pages, 0.5));
    s->db = std::make_unique<Database>(s->system.get());
    TpccWorkload::Populate(s->db.get(), c);
    s->tpcc = std::make_unique<TpccWorkload>(s->db.get(), c);
    s->duration = Seconds(opt.quick ? 4 : 120);
  } else if (opt.workload == "tpch-dw") {
    // 30 SF = 14,745 pages (2.25x the pool, fits on the SSD), 4 streams.
    // DW with lambda = 1%, periodic checkpoint every 40 virtual seconds.
    // The volume has room past the database for RF1's inserts.
    const uint64_t target = bench::kTpchPages[0];
    const TpchConfig c = bench::TpchForPages(30, target, 4, opt.seed);
    s->system = std::make_unique<DbSystem>(bench::BaseSystem(
        SsdDesign::kDualWrite, target + target / 8 + 64, 0.01));
    s->db = std::make_unique<Database>(s->system.get());
    TpchWorkload::Populate(s->db.get(), c);
    s->tpch = std::make_unique<TpchWorkload>(s->db.get(), c);
    s->tpch_streams = c.streams;
    s->system->checkpoint().SchedulePeriodic(Seconds(40));
  } else if (opt.workload == "tpcc-mem") {
    // 8 warehouses at row_scale 0.05: the pool holds the whole database,
    // noSSD, checkpoints off. An uncharged sequential sweep warms the pool
    // so the timed window measures the in-memory hit path.
    TpccConfig c;
    c.warehouses = 8;
    c.row_scale = 0.05;
    c.seed = opt.seed;
    SystemConfig config = bench::BaseSystem(
        SsdDesign::kNoSsd, TpccWorkload::EstimateDbPages(c, bench::kPageBytes),
        0.5);
    config.bp_frames = config.db_pages + 64;
    s->system = std::make_unique<DbSystem>(config);
    s->db = std::make_unique<Database>(s->system.get());
    TpccWorkload::Populate(s->db.get(), c);
    s->tpcc = std::make_unique<TpccWorkload>(s->db.get(), c);
    IoContext warm = s->system->MakeContext(/*charge=*/false);
    BufferPool& pool = s->system->buffer_pool();
    for (PageId pid = 0; pid < config.db_pages; ++pid) {
      PageGuard g = pool.FetchPage(pid, AccessKind::kSequential, warm);
    }
    s->duration = Seconds(opt.quick ? 4 : 30);
  } else {
    return nullptr;
  }
  return s;
}

// Forwards to TpccWorkload, recording each transaction's exact virtual
// latency by type and, when tracing, its host time and span. The type is
// whichever of TpccWorkload's five counters advanced during the call.
class ObservedTpcc : public Workload {
 public:
  ObservedTpcc(TpccWorkload* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }

  bool RunTransaction(int client_id, IoContext& ctx) override {
    const std::array<int64_t, kTxnTypes> before = Counts();
    const Time v0 = ctx.now;
    const int64_t h0 = tracer_->on() ? HostNs() : 0;
    const bool metric = inner_->RunTransaction(client_id, ctx);
    const int64_t h1 = tracer_->on() ? HostNs() : 0;
    const std::array<int64_t, kTxnTypes> after = Counts();
    int type = -1;
    int advanced = 0;
    for (int i = 0; i < kTxnTypes; ++i) {
      if (after[i] != before[i]) {
        type = i;
        ++advanced;
      }
    }
    if (advanced != 1) {
      ++unclassified_;
      return metric;
    }
    virt_lat_[type].push_back(ctx.now - v0);
    if (tracer_->on()) {
      host_ns_[type] += h1 - h0;
      tracer_->Add(run_span_, std::string("txn.") + kTxnNames[type], h0, h1,
                   ops_);
    }
    ++ops_;
    return metric;
  }

  void set_run_span(int64_t id) { run_span_ = id; }
  const std::vector<Time>& virt_lat(int type) const { return virt_lat_[type]; }
  int64_t host_ns(int type) const { return host_ns_[type]; }
  int64_t unclassified() const { return unclassified_; }

 private:
  std::array<int64_t, kTxnTypes> Counts() const {
    return {inner_->new_orders(), inner_->payments(), inner_->order_statuses(),
            inner_->deliveries(), inner_->stock_levels()};
  }

  TpccWorkload* inner_;
  Tracer* tracer_;
  int64_t run_span_ = 0;
  int64_t ops_ = 0;
  int64_t unclassified_ = 0;
  std::array<std::vector<Time>, kTxnTypes> virt_lat_;
  std::array<int64_t, kTxnTypes> host_ns_{};
};

// ------------------------------------------------------- layer snapshots

// Cumulative per-layer counters, read through each layer's public stats()
// and accessors; the timed window reports after-minus-before deltas.
struct Snapshot {
  Time virt_now = 0;
  uint64_t events = 0;
  SsdManagerStats ssd;
  CheckpointStats ckpt;
  AsyncIoEngine::Stats io;
  int64_t wal_records = 0, wal_bytes = 0, wal_flushes = 0, wal_waits = 0;
  Time disk_busy = 0, ssd_busy = 0, log_busy = 0;
  int64_t disk_read_bytes = 0, disk_write_bytes = 0;
  int64_t ssd_read_bytes = 0, ssd_write_bytes = 0, log_write_bytes = 0;
  int64_t multi_page_reads = 0;
};

Snapshot Take(DbSystem& sys) {
  Snapshot s;
  s.virt_now = sys.executor().now();
  s.events = sys.executor().num_executed();
  s.ssd = sys.ssd_manager().stats();
  s.ckpt = sys.checkpoint().stats();
  if (sys.disk_io_engine() != nullptr) s.io = sys.disk_io_engine()->stats();
  LogManager& log = sys.log();
  s.wal_records = log.num_records();
  s.wal_bytes = log.bytes_appended();
  s.wal_flushes = log.flushes_issued();
  s.wal_waits = log.flush_waits();
  StripedDiskArray& disks = sys.disk_array();
  s.disk_busy = disks.TotalBusyTime();
  s.disk_read_bytes = disks.TotalBytes(IoOp::kRead);
  s.disk_write_bytes = disks.TotalBytes(IoOp::kWrite);
  if (sys.ssd_device() != nullptr) {
    DeviceTimeline& t = sys.ssd_device()->timeline();
    s.ssd_busy = t.busy_time();
    s.ssd_read_bytes = t.bytes(IoOp::kRead);
    s.ssd_write_bytes = t.bytes(IoOp::kWrite);
  }
  if (sys.log_device() != nullptr) {
    DeviceTimeline& t = sys.log_device()->timeline();
    s.log_busy = t.busy_time();
    s.log_write_bytes = t.bytes(IoOp::kWrite);
  }
  s.multi_page_reads = sys.disk_manager().multi_page_reads();
  return s;
}

// Deterministic per-layer metrics over the timed window. Buffer-pool stats
// were reset at the window start, so `bp` is already a delta.
void AddLayerCounters(JsonObject& out, DbSystem& sys, const Snapshot& a,
                      const Snapshot& b, const BufferPoolStats& bp,
                      int64_t ops) {
  const double n = static_cast<double>(ops);
  const double window = static_cast<double>(b.virt_now - a.virt_now);
  const double page = sys.config().page_bytes;

  out.Add("engine.fetches_per_op", Ratio(bp.ops, n));

  out.Add("buffer.hit_rate", Ratio(bp.hits, bp.hits + bp.misses));
  out.Add("buffer.ssd_served_frac", Ratio(bp.ssd_hits, bp.misses));
  out.Add("buffer.disk_page_reads", bp.disk_page_reads);
  out.Add("buffer.evictions_dirty", bp.evictions_dirty);
  out.Add("buffer.evictions_clean", bp.evictions_clean);
  out.Add("buffer.prefetch_pages", bp.prefetch_pages);
  out.Add("buffer.expanded_pages", bp.expanded_pages);

  const SsdManagerStats& s0 = a.ssd;
  const SsdManagerStats& s1 = b.ssd;
  const int64_t hits = s1.hits - s0.hits;
  out.Add("core.ssd_hit_rate",
          Ratio(hits, hits + s1.probe_misses - s0.probe_misses));
  out.Add("core.admissions", s1.admissions - s0.admissions);
  out.Add("core.evictions", s1.evictions - s0.evictions);
  out.Add("core.rejected_sequential",
          s1.rejected_sequential - s0.rejected_sequential);
  out.Add("core.throttled", s1.throttled - s0.throttled);
  out.Add("core.cleaner_disk_writes",
          s1.cleaner_disk_writes - s0.cleaner_disk_writes);
  out.Add("core.cleaner_pages_per_request",
          Ratio(s1.cleaner_disk_writes - s0.cleaner_disk_writes,
                s1.cleaner_io_requests - s0.cleaner_io_requests));
  out.Add("core.dirty_frac", Ratio(s1.dirty_frames, s1.capacity_frames));

  out.Add("io.submitted", b.io.submitted - a.io.submitted);
  out.Add("io.device_ops", b.io.device_ops - a.io.device_ops);
  out.Add("io.pages_per_device_op",
          Ratio(b.io.submitted - a.io.submitted,
                b.io.device_ops - a.io.device_ops));
  out.Add("io.queue_full_waits", b.io.queue_full_waits - a.io.queue_full_waits);
  out.Add("io.retries", b.io.retries - a.io.retries);
  out.Add("io.errors", b.io.errors - a.io.errors);

  out.Add("storage.disk_busy_frac",
          Ratio(b.disk_busy - a.disk_busy,
                window * sys.disk_array().num_spindles()));
  out.Add("storage.ssd_busy_frac", Ratio(b.ssd_busy - a.ssd_busy, window));
  out.Add("storage.log_busy_frac", Ratio(b.log_busy - a.log_busy, window));
  out.Add("storage.disk_read_pages",
          (b.disk_read_bytes - a.disk_read_bytes) / page);
  out.Add("storage.disk_write_pages",
          (b.disk_write_bytes - a.disk_write_bytes) / page);
  out.Add("storage.ssd_read_pages", (b.ssd_read_bytes - a.ssd_read_bytes) / page);
  out.Add("storage.ssd_write_pages",
          (b.ssd_write_bytes - a.ssd_write_bytes) / page);
  out.Add("storage.multi_page_reads", b.multi_page_reads - a.multi_page_reads);
  const double written = static_cast<double>(
      (b.disk_write_bytes - a.disk_write_bytes) +
      (b.ssd_write_bytes - a.ssd_write_bytes) +
      (b.log_write_bytes - a.log_write_bytes));
  out.Add("storage.write_amp", Ratio(written, b.wal_bytes - a.wal_bytes));

  out.Add("sim.events_per_op", Ratio(static_cast<double>(b.events - a.events), n));

  out.Add("wal.records_per_op", Ratio(b.wal_records - a.wal_records, n));
  out.Add("wal.bytes_per_op", Ratio(b.wal_bytes - a.wal_bytes, n));
  out.Add("wal.flushes_per_op", Ratio(b.wal_flushes - a.wal_flushes, n));
  out.Add("wal.flush_waits", b.wal_waits - a.wal_waits);
  out.Add("wal.retained_records",
          static_cast<int64_t>(sys.log().retained_records()));
  out.Add("wal.ckpt_taken", b.ckpt.checkpoints_taken - a.ckpt.checkpoints_taken);
  out.Add("wal.ckpt_max_virt_s", ToSeconds(b.ckpt.max_duration));
  out.Add("wal.ckpt_pages_flushed",
          (b.ckpt.pages_flushed_memory - a.ckpt.pages_flushed_memory) +
              (b.ckpt.pages_flushed_ssd - a.ckpt.pages_flushed_ssd));
}

// Correctness checks at quiescence (after the drain); appends one line per
// failure.
void Check(DbSystem& sys, const BufferPoolStats& bp,
           std::vector<std::string>* failures) {
  const AuditReport audit =
      InvariantAuditor::AuditSystem(sys.buffer_pool(), &sys.ssd_manager());
  for (const InvariantViolation& v : audit.violations()) {
    failures->push_back("audit " + v.structure + ": " + v.detail);
  }
  if (bp.hits + bp.misses != bp.ops) {
    failures->push_back("buffer hits+misses != ops");
  }
  const SsdManagerStats ssd = sys.ssd_manager().stats();
  if (ssd.hits + ssd.probe_misses != ssd.ops) {
    failures->push_back("ssd hits+probe_misses != ops");
  }
  if (sys.checkpoint().stats().checkpoints_failed != 0) {
    failures->push_back("checkpoints_failed != 0");
  }
  if (ssd.device_read_errors != 0 || ssd.device_write_errors != 0) {
    failures->push_back("ssd device errors != 0");
  }
}

// ----------------------------------------------------------------- probes

// Median ns per call over `batches` batches of `per_batch` calls of fn(i).
template <typename Fn>
double ProbeNs(Tracer& tracer, int64_t parent, const char* name, int batches,
               int per_batch, Fn&& fn) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const int64_t t0 = HostNs();
    for (int i = 0; i < per_batch; ++i) fn(i);
    const int64_t t1 = HostNs();
    tracer.Add(parent, name, t0, t1, b);
    ns.push_back(static_cast<double>(t1 - t0) / per_batch);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

volatile uint64_t probe_sink = 0;

void AddProbes(JsonObject& host, DbSystem& sys, Tracer& tracer,
               int64_t parent) {
  BufferPool& pool = sys.buffer_pool();
  std::vector<PageId> resident;
  for (PageId pid = 0; pid < sys.config().db_pages && resident.size() < 512;
       ++pid) {
    if (pool.Contains(pid)) resident.push_back(pid);
  }
  IoContext ctx = sys.MakeContext(/*charge=*/false);
  host.Add("buffer.fetch_hit_ns",
           resident.empty()
               ? 0.0
               : ProbeNs(tracer, parent, "probe.buffer_fetch_hit", 7, 50000,
                         [&](int i) {
                           PageGuard g = pool.FetchPage(
                               resident[static_cast<size_t>(i) %
                                        resident.size()],
                               AccessKind::kRandom, ctx);
                         }));

  const SsdManager& ssd = sys.ssd_manager();
  const uint64_t pages = sys.config().db_pages;
  uint64_t present = 0;
  host.Add("core.probe_ns",
           ProbeNs(tracer, parent, "probe.ssd_probe", 7, 100000, [&](int i) {
             present += ssd.Probe(static_cast<PageId>(
                            (static_cast<uint64_t>(i) * 7919) % pages)) !=
                        SsdProbe::kAbsent;
           }));

  std::vector<uint8_t> page(sys.config().page_bytes);
  Rng rng(7);
  for (uint8_t& byte : page) byte = static_cast<uint8_t>(rng.Next());
  uint32_t crc = 0;
  host.Add("common.crc32c_ns_per_page",
           ProbeNs(tracer, parent, "probe.crc32c", 7, 5000, [&](int) {
             crc = Crc32c(page.data(), page.size(), crc);
           }));
  // Keep the probe results observable so the loops are not elided.
  probe_sink = crc ^ present;
}

// ------------------------------------------------------------------- pass

// What one timed window produced.
struct Window {
  int64_t ops = 0;
  int64_t host_ns = 0;
  double tput = 0.0;
  std::vector<Time> latencies;  // exact per-op virtual latencies
};

// Runs the timed window on `s`, drains, and checks. Writes deterministic
// per-layer metrics to `counters` and, when tracing, host-clock ones to
// `host`.
Window RunWindow(Setup& s, Tracer& tracer, int64_t parent, JsonObject& counters,
                 JsonObject& host, std::vector<std::string>* failures) {
  DbSystem& sys = *s.system;
  Window w;
  sys.buffer_pool().ResetStats();
  const Snapshot before = Take(sys);
  const int64_t run_span = tracer.Open(parent, "run");
  if (s.tpcc != nullptr) {
    ObservedTpcc observed(s.tpcc.get(), &tracer);
    observed.set_run_span(run_span);
    DriverOptions d;
    d.num_clients = bench::kClients;
    d.duration = s.duration;
    d.sample_width = Seconds(1);
    d.steady_window = s.duration / 2;
    d.record_traffic = false;
    Driver driver(&sys, &observed, d);
    const int64_t t0 = HostNs();
    const DriverResult r = driver.Run();
    w.host_ns = HostNs() - t0;
    w.ops = r.total_txns;
    w.tput = r.steady_rate * 60.0;  // tpmC

    int64_t txn_host_ns = 0;
    for (int t = 0; t < kTxnTypes; ++t) {
      const std::vector<Time>& lat = observed.virt_lat(t);
      w.latencies.insert(w.latencies.end(), lat.begin(), lat.end());
      counters.Add(std::string("workload.txn_virt_p99_ms.") + kTxnNames[t],
                   Percentile(lat, 0.99) / 1e3);
      if (tracer.on()) {
        host.Add(std::string("workload.txn_host_us.") + kTxnNames[t],
                 Ratio(observed.host_ns(t) / 1e3,
                       static_cast<double>(lat.size())));
      }
      txn_host_ns += observed.host_ns(t);
    }
    const TpccWorkload& tw = *s.tpcc;
    if (tw.new_orders() + tw.payments() + tw.order_statuses() +
                tw.deliveries() + tw.stock_levels() !=
            r.total_txns ||
        observed.unclassified() != 0) {
      failures->push_back("tpcc per-type counters do not sum to total_txns");
    }
    counters.Add("workload.power_virt_s", 0.0);
    counters.Add("workload.throughput_virt_s", 0.0);
    if (tracer.on()) {
      host.Add("workload.background_host_frac",
               Ratio(static_cast<double>(w.host_ns - txn_host_ns),
                     static_cast<double>(w.host_ns)));
    }
  } else {
    const int64_t t0 = HostNs();
    const TpchTestResult r = s.tpch->RunFullBenchmark();
    sys.checkpoint().StopPeriodic();
    sys.ssd_manager().StopBackground();
    sys.executor().RunUntilIdle();
    w.host_ns = HostNs() - t0;
    // Power test: RF1, Q1..Q22, RF2. Throughput test: every stream runs
    // Q1..Q22 and the refresh stream one RF pair per query stream.
    w.ops = static_cast<int64_t>(r.power_timings.size()) +
            static_cast<int64_t>(s.tpch_streams) *
                (TpchWorkload::kNumQueries + 2);
    w.tput = r.qphh;
    for (const TpchQueryResult& q : r.power_timings) {
      w.latencies.push_back(q.elapsed);
    }
    if (r.power_timings.size() != TpchWorkload::kNumQueries + 2 ||
        !(r.qphh > 0)) {
      failures->push_back("tpch power test incomplete");
    }
    for (int t = 0; t < kTxnTypes; ++t) {
      counters.Add(std::string("workload.txn_virt_p99_ms.") + kTxnNames[t],
                   0.0);
      if (tracer.on()) {
        host.Add(std::string("workload.txn_host_us.") + kTxnNames[t], 0.0);
      }
    }
    counters.Add("workload.power_virt_s", ToSeconds(r.power_elapsed));
    counters.Add("workload.throughput_virt_s", ToSeconds(r.throughput_elapsed));
    if (tracer.on()) host.Add("workload.background_host_frac", 0.0);
  }
  tracer.Close(run_span);
  const Snapshot after = Take(sys);
  const BufferPoolStats bp = sys.buffer_pool().stats();
  AddLayerCounters(counters, sys, before, after, bp, w.ops);
  Check(sys, bp, failures);
  return w;
}

// Traced pass only, after the window: Q1..Q22 one at a time on the
// populated TPC-H system, then the layer probes.
void RunTracedExtras(Setup& s, Tracer& tracer, int64_t parent,
                     JsonObject& host) {
  DbSystem& sys = *s.system;
  double query_ms = 0.0;
  if (s.tpch != nullptr) {
    const int64_t queries = tracer.Open(parent, "queries");
    for (int q = 1; q <= TpchWorkload::kNumQueries; ++q) {
      IoContext ctx = sys.MakeContext();
      const int64_t t0 = HostNs();
      s.tpch->RunQuery(q, ctx);
      sys.executor().RunUntil(ctx.now);
      const int64_t t1 = HostNs();
      tracer.Add(queries, "query", t0, t1, q);
      query_ms += static_cast<double>(t1 - t0) / 1e6;
    }
    sys.executor().RunUntilIdle();
    tracer.Close(queries);
  }
  host.Add("workload.query_host_ms", query_ms);
  const int64_t probes = tracer.Open(parent, "probes");
  AddProbes(host, sys, tracer, probes);
  tracer.Close(probes);
}

int Run(const Options& opt) {
  Tracer tracer(opt.traced);
  const int64_t pass_span = tracer.Open(0, "pass");
  const int64_t t0 = HostNs();
  const std::unique_ptr<Setup> setup = MakeSetup(opt);
  const int64_t t1 = HostNs();
  if (setup == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  tracer.Add(pass_span, "setup", t0, t1);

  std::vector<std::string> failures;
  JsonObject counters;
  JsonObject host;
  const Window w =
      RunWindow(*setup, tracer, pass_span, counters, host, &failures);
  if (opt.traced) RunTracedExtras(*setup, tracer, pass_span, host);
  tracer.Close(pass_span);

  JsonObject virt;
  virt.Add("virt_tput", w.tput);
  virt.Add("virt_lat_p50_ms", Percentile(w.latencies, 0.50) / 1e3);
  virt.Add("virt_lat_p99_ms", Percentile(w.latencies, 0.99) / 1e3);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonObject out;
  out.AddString("workload", opt.workload);
  out.Add("seed", static_cast<int64_t>(opt.seed));
  out.Add("traced", static_cast<int64_t>(opt.traced));
  out.Add("ops", w.ops);
  out.Raw("failures", JsonStrings(failures));
  out.Add("setup_s", static_cast<double>(t1 - t0) / 1e9);
  out.Add("window_host_s", static_cast<double>(w.host_ns) / 1e9);
  out.Add("host_us_per_op", Ratio(static_cast<double>(w.host_ns) / 1e3,
                                  static_cast<double>(w.ops)));
  out.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  out.Add("virt", virt);
  if (setup->tpch != nullptr) {
    // run.py pools the power-test timings of several seeds (see there).
    std::string power = "[";
    for (size_t i = 0; i < w.latencies.size(); ++i) {
      power += (i > 0 ? "," : "") + std::to_string(w.latencies[i]);
    }
    out.Raw("power_us", power + "]");
  }
  out.Add("counters", counters);
  out.Add("host", host);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);

  if (opt.traced && !opt.trace_out.empty() && !tracer.Write(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 1;
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace turbobp

int main(int argc, char** argv) {
  turbobp::perfbench::Options opt;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --name value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--traced") {
      opt.traced = std::atoi(val) != 0;
    } else if (key == "--quick") {
      opt.quick = std::atoi(val) != 0;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  return turbobp::perfbench::Run(opt);
}
