// Repository benchmark program: runs `rounds` rounds of one TPC-C workload
// (each a fresh load, one TpccDriver::Run() and the correctness checks) and
// prints one JSON object on stdout.
//
//   noftl_bench workload=<name> seed=<n> [rounds=<r>] [trace=1] [scale=<f>]
//               [setup_loads=<n>] [trace_out=<path>]
//
// Round r loads with seed RoundSeed(seed, r) and drives with that plus one.
// `scale` multiplies the workload's transaction counts (benchmark/run.py
// --smoke uses 0.05). Simulated metrics are pooled over the rounds, wall-clock
// ones are medians; setup_s is the median over at least `setup_loads` loads
// (default 3). With trace=1 each round seed runs untraced, then traced
// with every tablespace wrapped in a TracedPageIo, and the per-layer metrics
// are emitted beside the end-to-end ones.
//
// Everything here observes the stack from outside: it times calls into the
// public API and reads deltas of the public stats structs. See
// benchmark/README.md for every metric's definition and counter window.
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/schema.h"
#include "tpcc/tpcc_db.h"
#include "trace.h"

namespace noftl::benchmark {
namespace {

constexpr uint32_t kPageSize = 4096;
constexpr uint32_t kPagesPerBlock = 64;
constexpr double kEndUtilization = 0.80;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  tpcc::TpccDbOptions db;
  tpcc::DriverOptions driver;
};

/// Every terminal draws from its own rng stream and runs a fixed quota, so
/// the committed work does not depend on how terminals interleave. Set only
/// while the option exists: once per-terminal streams are unconditional, the
/// workloads stay the same.
template <typename Options>
void UsePerTerminalStreams(Options* o) {
  if constexpr (requires { o->per_terminal_streams; }) {
    o->per_terminal_streams = true;
  }
}

/// Device and buffer shape sized so the database fills kEndUtilization of
/// all `shards` devices at the end of the run (the arithmetic of the
/// paper-figure benches, repeated here so the benchmark does not depend on
/// them). `dies` and `channels` describe one device.
db::DatabaseOptions DeviceOptions(const tpcc::TpccScale& scale,
                                  uint64_t expected_new_orders, uint32_t dies,
                                  uint32_t channels, uint32_t frames,
                                  uint32_t shards = 1) {
  db::DatabaseOptions o;
  o.geometry.channels = channels;
  o.geometry.dies_per_channel = dies / channels;
  o.geometry.pages_per_block = kPagesPerBlock;
  o.geometry.page_size = kPageSize;
  o.geometry.blocks_per_die = tpcc::SuggestBlocksPerDie(
      scale, kPageSize, expected_new_orders, dies * shards, kPagesPerBlock,
      kEndUtilization);
  const uint32_t planes = o.geometry.planes_per_die;
  o.geometry.blocks_per_die =
      (o.geometry.blocks_per_die + planes - 1) / planes * planes;
  o.buffer.frame_count = frames;
  o.buffer.flush_batch = 16;
  o.buffer.flush_high_water = 0.20;
  return o;
}

uint64_t Scaled(uint64_t txns, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(
                                   static_cast<double>(txns) * scale)));
}

/// Figure-2 placement on a 64-die / 16-channel device, 1 full-scale
/// warehouse, 8 saturating terminals.
Workload Figure3Setup(uint64_t warmup, uint64_t measured, uint32_t frames,
                      db::Backend backend) {
  Workload w;
  tpcc::TpccScale scale;
  scale.warehouses = 1;
  const uint64_t new_orders = (warmup + measured) * 45 / 100;
  const uint32_t dies = 64;
  w.db.db = DeviceOptions(scale, new_orders, dies, 16, frames);
  w.db.db.backend = backend;
  w.db.scale = scale;
  w.db.placement = tpcc::DeriveFigure2Placement(
      scale, kPageSize, new_orders, dies,
      tpcc::UsablePagesPerDie(w.db.db.geometry.blocks_per_die,
                              kPagesPerBlock));
  w.driver.terminals = 8;
  w.driver.warmup_transactions = warmup;
  w.driver.max_transactions = measured;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double scale,
                  Workload* out) {
  Workload w;
  if (name == "tpcc_regions" || name == "tpcc_ftl") {
    w = Figure3Setup(Scaled(50000, scale), Scaled(150000, scale), 1024,
                     name == "tpcc_ftl" ? db::Backend::kFtl
                                        : db::Backend::kNoFtl);
  } else if (name == "tpcc_snapshot") {
    w = Figure3Setup(Scaled(15000, scale), Scaled(45000, scale), 65536,
                     db::Backend::kNoFtl);
    w.db.db.scheduler.enabled = true;
    w.db.db.scheduler.batch_pages = 4;
    w.db.db.scheduler.quanta_per_tick = 1;
    w.driver.think_time_us = 10000;
    w.driver.snapshot_stocklevel = true;
  } else if (name == "tpcc_threads") {
    tpcc::TpccScale s;
    s.warehouses = 8;
    s.items = 10000;
    s.customers_per_district = 600;
    s.initial_orders_per_district = 300;
    s.initial_new_orders_per_district = 90;
    const uint64_t warmup = Scaled(5000, scale);
    const uint64_t measured = Scaled(60000, scale);
    const uint32_t dies_per_shard = 8;
    const uint32_t shards = 4;
    w.db.db = DeviceOptions(s, (warmup + measured) * 45 / 100, dies_per_shard,
                            dies_per_shard, 1024, shards);
    w.db.db.sharding.shard_count = shards;
    w.db.db.sharding.placement = shard::ShardPlacement::kByKey;
    w.db.scale = s;
    w.db.placement = tpcc::TraditionalPlacement(dies_per_shard);
    w.driver.terminals = 8;
    w.driver.worker_threads = 4;
    w.driver.wall_pace = 0;
    w.driver.warmup_transactions = warmup;
    w.driver.max_transactions = measured;
  } else {
    return false;
  }
  w.db.seed = seed;
  w.driver.seed = seed + 1;
  w.driver.batched_io = true;
  UsePerTerminalStreams(&w.driver);
  *out = w;
  return true;
}

/// Transactions Run() executes: every terminal runs the same quota.
uint64_t ExecutedTransactions(const tpcc::DriverOptions& d) {
  const uint64_t total = d.warmup_transactions + d.max_transactions;
  return (total + d.terminals - 1) / d.terminals * d.terminals;
}

// ---------------------------------------------------------------------------
// Counters read from outside the stack
// ---------------------------------------------------------------------------

/// Visit every out-of-place mapper of the stack: one per region (per shard
/// when sharded) or the FTL's.
template <typename Fn>
void ForEachMapper(db::Database* d, Fn&& fn) {
  auto visit_regions = [&](region::RegionManager* rm) {
    if (rm == nullptr) return;
    for (region::Region* rg : rm->regions()) fn(rg->mapper());
  };
  if (shard::ShardRouter* router = d->shards(); router != nullptr) {
    for (size_t s = 0; s < router->shard_count(); s++) {
      visit_regions(router->regions(s));
      if (router->ftl(s) != nullptr) fn(router->ftl(s)->mapper());
    }
    return;
  }
  visit_regions(d->regions());
  if (d->ftl() != nullptr) fn(d->ftl()->mapper());
}

/// Every sharded space the tablespaces draw from (none when unsharded).
std::vector<shard::ShardedSpace*> ShardedSpaces(tpcc::TpccDb* db) {
  std::vector<shard::ShardedSpace*> out;
  shard::ShardRouter* router = db->database()->shards();
  if (router == nullptr) return out;
  if (router->ftl_space() != nullptr) out.push_back(router->ftl_space());
  for (const auto& spec : db->options().placement.regions) {
    if (auto* sp = router->space(spec.region_name); sp != nullptr) {
      out.push_back(sp);
    }
  }
  return out;
}

/// Counters that are never reset (mappers, shard spaces, schedulers, die
/// busy time): the benchmark takes their delta over Run().
struct RunCounters {
  uint64_t host_writes = 0;
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
  uint64_t victim_picks = 0;
  uint64_t victim_scan_steps = 0;
  uint64_t throttle_events = 0;
  uint64_t emergency_reclaims = 0;
  uint64_t read_retries = 0;
  uint64_t checkpoints_written = 0;
  uint64_t versions_retained = 0;
  uint64_t versions_reclaimed = 0;
  uint64_t snapshot_reads = 0;

  uint64_t merged_batches = 0;
  uint64_t passthrough_batches = 0;
  uint64_t scatter_requests = 0;
  uint64_t extent_spills = 0;

  uint64_t bg_gc_pages = 0;
  uint64_t idle_grants = 0;
  uint64_t busy_skips = 0;
  uint64_t preemptions = 0;
  uint64_t bg_erase_deferred = 0;

  std::vector<SimTime> die_busy;  ///< per die, every device in order
  SimTime busy_horizon = 0;       ///< max die busy-until
};

RunCounters ReadCounters(tpcc::TpccDb* db) {
  RunCounters c;
  ForEachMapper(db->database(), [&](const ftl::OutOfPlaceMapper& m) {
    const ftl::MapperStats& s = m.stats();
    c.host_writes += s.host_writes;
    c.gc_copybacks += s.gc_copybacks;
    c.gc_erases += s.gc_erases;
    c.victim_picks += s.victim_picks;
    c.victim_scan_steps += s.victim_scan_steps;
    c.throttle_events += s.throttle_events;
    c.emergency_reclaims += s.emergency_reclaims;
    c.read_retries += s.read_retries;
    c.checkpoints_written += s.checkpoints_written;
    c.versions_retained += s.versions_retained;
    c.versions_reclaimed += s.versions_reclaimed;
    c.snapshot_reads += s.snapshot_reads;
  });
  for (shard::ShardedSpace* sp : ShardedSpaces(db)) {
    const shard::ShardedSpaceStats& s = sp->stats();
    c.merged_batches += s.merged_batches;
    c.passthrough_batches += s.passthrough_batches;
    c.scatter_requests += s.scatter_requests;
    c.extent_spills += s.extent_spills;
  }
  const sched::SchedulerStats s = db->database()->SchedulerStatsTotal();
  c.bg_gc_pages = s.bg_gc_pages;
  c.idle_grants = s.idle_grants;
  c.busy_skips = s.busy_skips;
  c.preemptions = s.preemptions;
  c.bg_erase_deferred = s.bg_erase_deferred;
  db->database()->ForEachDevice([&](flash::FlashDevice* dev) {
    for (flash::DieId d = 0; d < dev->geometry().total_dies(); d++) {
      c.die_busy.push_back(dev->DieBusyTime(d));
      c.busy_horizon = std::max(c.busy_horizon, dev->DieBusyUntil(d));
    }
  });
  return c;
}

/// Device counters since the driver's warmup reset (the measured phase).
struct DeviceCounters {
  std::array<uint64_t, flash::kNumOrigins> programs{};
  std::array<uint64_t, flash::kNumOrigins> erases{};
  std::array<uint64_t, flash::kNumOrigins> copybacks{};
  Histogram host_read_us;
  Histogram host_write_us;
  uint32_t max_erase_count = 0;
};

DeviceCounters ReadDeviceCounters(db::Database* d) {
  DeviceCounters c;
  d->ForEachDevice([&](flash::FlashDevice* dev) {
    const flash::FlashStats& s = dev->stats();
    for (int o = 0; o < flash::kNumOrigins; o++) {
      c.programs[o] += s.programs[o];
      c.erases[o] += s.erases[o];
      c.copybacks[o] += s.copybacks[o];
    }
    c.host_read_us.Merge(dev->HostReadLatency());
    c.host_write_us.Merge(dev->HostWriteLatency());
    uint32_t mn = 0, mx = 0;
    double avg = 0;
    dev->WearSummary(&mn, &mx, &avg);
    c.max_erase_count = std::max(c.max_erase_count, mx);
  });
  return c;
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Peak resident set (VmHWM) of this process, MiB.
double PeakRssMiB() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) {
      kib = strtod(line + 6, nullptr);
      break;
    }
  }
  fclose(f);
  return kib / 1024.0;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

template <typename Row>
bool Decode(Slice record, Row* row) {
  if (record.size() != sizeof(Row)) return false;
  memcpy(row, record.data(), sizeof(Row));
  return true;
}

/// TPC-C consistency conditions 3.3.2.1-3.3.2.4, checked by full scans.
void CheckConsistency(tpcc::TpccDb* db, txn::TxnContext* ctx,
                      std::vector<std::string>* errors) {
  const uint32_t W = db->scale().warehouses;
  const uint32_t D = db->scale().districts_per_warehouse;
  const size_t n = static_cast<size_t>(W) * D;
  auto slot = [&](int32_t w, int32_t d) -> size_t {
    if (w < 1 || d < 1 || static_cast<uint32_t>(w) > W ||
        static_cast<uint32_t>(d) > D) {
      return n;
    }
    return static_cast<size_t>(w - 1) * D + static_cast<size_t>(d - 1);
  };
  constexpr int64_t kNone = -1;
  std::vector<double> w_ytd(W, std::nan("")), d_ytd_sum(W, 0.0);
  std::vector<int64_t> next_o_id(n, kNone), max_o(n, kNone), max_no(n, kNone),
      min_no(n, std::numeric_limits<int64_t>::max()), no_rows(n, 0),
      ol_cnt_sum(n, 0), ol_rows(n, 0);
  bool decode_ok = true;
  auto scan = [&](storage::HeapFile* heap, auto&& fn) {
    Status s = heap->Scan(ctx, [&](storage::RecordId, Slice rec) {
      if (!fn(rec)) decode_ok = false;
      return true;
    });
    if (!s.ok()) {
      errors->push_back("scan " + heap->name() + ": " + s.ToString());
    }
  };
  scan(db->warehouse, [&](Slice rec) {
    tpcc::WarehouseRow r;
    if (!Decode(rec, &r) || r.w_id < 1 || static_cast<uint32_t>(r.w_id) > W) {
      return false;
    }
    w_ytd[r.w_id - 1] = r.ytd;
    return true;
  });
  scan(db->district, [&](Slice rec) {
    tpcc::DistrictRow r;
    if (!Decode(rec, &r) || slot(r.w_id, r.d_id) == n) return false;
    d_ytd_sum[r.w_id - 1] += r.ytd;
    next_o_id[slot(r.w_id, r.d_id)] = r.next_o_id;
    return true;
  });
  scan(db->order, [&](Slice rec) {
    tpcc::OrderRow r;
    if (!Decode(rec, &r) || slot(r.w_id, r.d_id) == n) return false;
    const size_t i = slot(r.w_id, r.d_id);
    max_o[i] = std::max<int64_t>(max_o[i], r.o_id);
    ol_cnt_sum[i] += r.ol_cnt;
    return true;
  });
  scan(db->new_order, [&](Slice rec) {
    tpcc::NewOrderRow r;
    if (!Decode(rec, &r) || slot(r.w_id, r.d_id) == n) return false;
    const size_t i = slot(r.w_id, r.d_id);
    max_no[i] = std::max<int64_t>(max_no[i], r.o_id);
    min_no[i] = std::min<int64_t>(min_no[i], r.o_id);
    no_rows[i]++;
    return true;
  });
  scan(db->order_line, [&](Slice rec) {
    tpcc::OrderLineRow r;
    if (!Decode(rec, &r) || slot(r.w_id, r.d_id) == n) return false;
    ol_rows[slot(r.w_id, r.d_id)]++;
    return true;
  });
  if (!decode_ok) errors->push_back("a scanned row failed to decode");

  auto fail = [&](const char* cond, uint32_t w, uint32_t d,
                  const std::string& what) {
    errors->push_back(std::string("consistency ") + cond + " w=" +
                      std::to_string(w) + (d ? " d=" + std::to_string(d) : "") +
                      ": " + what);
  };
  for (uint32_t w = 1; w <= W; w++) {
    // 3.3.2.1: W_YTD = sum(D_YTD). Payment amounts are whole cents, so the
    // two float sums may differ only by rounding.
    const double wy = w_ytd[w - 1], dy = d_ytd_sum[w - 1];
    if (!(std::fabs(wy - dy) <= 0.005 + 1e-12 * std::fabs(wy))) {
      fail("3.3.2.1", w, 0,
           "W_YTD " + std::to_string(wy) + " != sum D_YTD " +
               std::to_string(dy));
    }
    for (uint32_t d = 1; d <= D; d++) {
      const size_t i = (w - 1) * D + (d - 1);
      // 3.3.2.2: D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID).
      if (next_o_id[i] - 1 != max_o[i] ||
          (no_rows[i] > 0 && max_no[i] != max_o[i])) {
        fail("3.3.2.2", w, d,
             "D_NEXT_O_ID-1 " + std::to_string(next_o_id[i] - 1) +
                 ", max O_ID " + std::to_string(max_o[i]) + ", max NO_O_ID " +
                 std::to_string(max_no[i]));
      }
      // 3.3.2.3: NEW-ORDER rows = max(NO_O_ID) - min(NO_O_ID) + 1.
      if (no_rows[i] > 0 && no_rows[i] != max_no[i] - min_no[i] + 1) {
        fail("3.3.2.3", w, d,
             std::to_string(no_rows[i]) + " NEW-ORDER rows for o_id range [" +
                 std::to_string(min_no[i]) + ", " + std::to_string(max_no[i]) +
                 "]");
      }
      // 3.3.2.4: sum(O_OL_CNT) = ORDER-LINE rows.
      if (ol_cnt_sum[i] != ol_rows[i]) {
        fail("3.3.2.4", w, d,
             "sum O_OL_CNT " + std::to_string(ol_cnt_sum[i]) + " != " +
                 std::to_string(ol_rows[i]) + " ORDER-LINE rows");
      }
    }
  }
}

/// Structural checks of every layer plus the TPC-C conditions.
std::vector<std::string> CheckDatabase(tpcc::TpccDb* db, SimTime now) {
  std::vector<std::string> errors;
  db::Database* d = db->database();
  if (Status s = d->buffer()->VerifyIntegrity(); !s.ok()) {
    errors.push_back("buffer pool: " + s.ToString());
  }
  ForEachMapper(d, [&](const ftl::OutOfPlaceMapper& m) {
    if (Status s = m.VerifyIntegrity(); !s.ok()) {
      errors.push_back("mapper: " + s.ToString());
    }
  });
  if (d->snapshots()->live_count() != 0) {
    errors.push_back(std::to_string(d->snapshots()->live_count()) +
                     " snapshots left live");
  }
  if (Status s = d->snapshots()->Verify(); !s.ok()) {
    errors.push_back("snapshot horizon: " + s.ToString());
  }
  txn::TxnContext ctx;
  ctx.now = now;
  CheckConsistency(db, &ctx, &errors);
  // The scans above went through the pool and the mappers once more.
  if (Status s = d->buffer()->VerifyIntegrity(); !s.ok()) {
    errors.push_back("buffer pool after scans: " + s.ToString());
  }
  return errors;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Ordered name -> value list.
struct Metrics {
  std::vector<std::pair<std::string, double>> values;

  void Set(const std::string& name, double v) {
    values.emplace_back(name, std::isfinite(v) ? v : 0.0);
  }
};

/// Every digit, so repeated runs can be compared exactly.
std::string ToJson(const Metrics& m) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < m.values.size(); i++) {
    snprintf(buf, sizeof(buf), "%.17g", m.values[i].second);
    out += (i ? ", " : "") + JsonString(m.values[i].first) + ": " + buf;
  }
  return out + "}";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Simulated results of one or more rounds, pooled: histograms merge and
/// counters add, so a percentile over R rounds sees R times the samples.
/// All counters cover the measured phase (the driver resets the device
/// stats when warmup ends).
struct SimPool {
  Histogram neworder, payment, stocklevel;
  uint64_t committed = 0;
  SimTime elapsed_us = 0;
  uint64_t physical_writes = 0;  ///< programs + copybacks, every origin
  uint64_t host_programs = 0;
  uint64_t erases = 0;

  void Add(const tpcc::DriverReport& r, const DeviceCounters& dev) {
    neworder.Merge(r.response_us[static_cast<int>(tpcc::TxnType::kNewOrder)]);
    payment.Merge(r.response_us[static_cast<int>(tpcc::TxnType::kPayment)]);
    stocklevel.Merge(
        r.response_us[static_cast<int>(tpcc::TxnType::kStockLevel)]);
    committed += r.transactions;
    elapsed_us += r.elapsed_us;
    for (int o = 0; o < flash::kNumOrigins; o++) {
      physical_writes += dev.programs[o] + dev.copybacks[o];
      erases += dev.erases[o];
    }
    host_programs += dev.programs[static_cast<int>(flash::OpOrigin::kHost)];
  }

  void Merge(const SimPool& o) {
    neworder.Merge(o.neworder);
    payment.Merge(o.payment);
    stocklevel.Merge(o.stocklevel);
    committed += o.committed;
    elapsed_us += o.elapsed_us;
    physical_writes += o.physical_writes;
    host_programs += o.host_programs;
    erases += o.erases;
  }

  void Emit(Metrics* m) const {
    m->Set("sim_tps", Ratio(static_cast<double>(committed),
                            static_cast<double>(elapsed_us) / 1e6));
    m->Set("neworder_p50_ms", neworder.Percentile(50) / 1000);
    m->Set("neworder_p99_ms", neworder.Percentile(99) / 1000);
    m->Set("neworder_p999_ms", neworder.Percentile(99.9) / 1000);
    m->Set("payment_p95_ms", payment.Percentile(95) / 1000);
    m->Set("stocklevel_p99_ms", stocklevel.P99() / 1000);
    m->Set("write_amp", Ratio(static_cast<double>(physical_writes),
                              static_cast<double>(host_programs)));
    m->Set("erases_per_ktxn", 1000 * Ratio(static_cast<double>(erases),
                                           static_cast<double>(committed)));
  }
};

struct RunWindow {
  uint64_t executed = 0;      ///< every transaction Run() executed
  uint64_t measured = 0;      ///< transactions of the measured phase
  double run_wall_ns = 0;
  double run_cpu_ns = 0;
  uint32_t driving_threads = 1;
};

void AddPerLayer(tpcc::TpccDb* db, const tpcc::DriverReport& r,
                 const DeviceCounters& dev, const RunCounters& before,
                 const RunCounters& after, const RunWindow& win,
                 const Tracer& tracer, Metrics* m) {
  const double executed = static_cast<double>(win.executed);
  const double measured = static_cast<double>(win.measured);
  const double committed = static_cast<double>(r.transactions);
  auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };

  // Storage spans (whole Run).
  const auto spans = tracer.Totals();
  double storage_calls = 0, storage_wall_ns = 0, submitted_pages = 0,
         submissions = 0;
  Histogram io_sim_us;
  for (int i = 0; i < kNumSpanNames; i++) {
    const auto name = static_cast<SpanName>(i);
    if (!IsStorageSpan(name)) continue;
    const SpanAggregate& a = spans[i];
    storage_calls += static_cast<double>(a.count);
    storage_wall_ns += static_cast<double>(a.wall_ns);
    io_sim_us.Merge(a.sim_us_hist);
    if (name != SpanName::kWait) {
      submissions += static_cast<double>(a.count);
      submitted_pages += static_cast<double>(a.pages);
    }
  }

  // tpcc: the driver and the engine code above the storage boundary.
  m->Set("tpcc.cpu_us_per_txn", win.run_cpu_ns / 1000 / executed);
  m->Set("tpcc.cores_busy", Ratio(win.run_cpu_ns, win.run_wall_ns));
  m->Set("tpcc.upper_wall_us_per_txn",
         std::max(0.0, win.run_wall_ns * win.driving_threads -
                           storage_wall_ns) /
             1000 / executed);
  const double gc_active = static_cast<double>(r.response_gc_active_us.count());
  m->Set("tpcc.gc_overlap_share",
         Ratio(gc_active,
               gc_active + static_cast<double>(r.response_idle_us.count())));
  m->Set("tpcc.retries", static_cast<double>(r.txn_retries));
  m->Set("tpcc.giveups", static_cast<double>(r.txn_giveups));
  m->Set("tpcc.samples_neworder",
         static_cast<double>(
             r.response_us[static_cast<int>(tpcc::TxnType::kNewOrder)].count()));
  m->Set("tpcc.samples_stocklevel",
         static_cast<double>(
             r.response_us[static_cast<int>(tpcc::TxnType::kStockLevel)]
                 .count()));

  // buffer: stats reset at warmup end, so the measured phase.
  const buffer::BufferStats& b = db->database()->buffer()->stats();
  m->Set("buffer.hit_rate", b.HitRate());
  m->Set("buffer.misses_per_txn", static_cast<double>(b.misses) / measured);
  m->Set("buffer.front_hit_rate", Ratio(static_cast<double>(b.front_hits),
                                        static_cast<double>(b.front_probes)));
  m->Set("buffer.sync_flushes_per_txn",
         static_cast<double>(b.sync_flushes) / measured);
  m->Set("buffer.bg_flushes_per_txn",
         static_cast<double>(b.background_flushes) / measured);
  m->Set("buffer.evictions_per_txn",
         static_cast<double>(b.evictions) / measured);
  m->Set("buffer.pages_per_fetch",
         Ratio(static_cast<double>(b.batched_fetch_pages),
               static_cast<double>(b.batched_fetches)));
  m->Set("buffer.write_back_errors", static_cast<double>(b.write_back_errors));

  // storage: the traced PageIo boundary (whole Run).
  m->Set("storage.calls_per_txn", storage_calls / executed);
  m->Set("storage.pages_per_call", Ratio(submitted_pages, submissions));
  m->Set("storage.wall_us_per_txn", storage_wall_ns / 1000 / executed);
  m->Set("storage.wall_ns_per_page", Ratio(storage_wall_ns, submitted_pages));
  m->Set("storage.io_sim_us_p50", io_sim_us.Percentile(50));
  m->Set("storage.io_sim_us_p99", io_sim_us.Percentile(99));

  // ftl: every mapper (regions, shards or the FTL), whole Run.
  const double gc_copybacks = delta(before.gc_copybacks, after.gc_copybacks);
  m->Set("ftl.host_writes_per_txn",
         delta(before.host_writes, after.host_writes) / executed);
  m->Set("ftl.gc_copybacks_per_txn", gc_copybacks / executed);
  m->Set("ftl.copybacks_per_gc_erase",
         Ratio(gc_copybacks, delta(before.gc_erases, after.gc_erases)));
  m->Set("ftl.victim_scan_steps_per_pick",
         Ratio(delta(before.victim_scan_steps, after.victim_scan_steps),
               delta(before.victim_picks, after.victim_picks)));
  m->Set("ftl.throttle_events",
         delta(before.throttle_events, after.throttle_events));
  m->Set("ftl.emergency_reclaims",
         delta(before.emergency_reclaims, after.emergency_reclaims));
  m->Set("ftl.read_retries", delta(before.read_retries, after.read_retries));
  m->Set("ftl.checkpoints_written",
         delta(before.checkpoints_written, after.checkpoints_written));

  // noftl: state at the end of the run.
  double valid_frac_max = 0;
  ForEachMapper(db->database(), [&](const ftl::OutOfPlaceMapper& mp) {
    valid_frac_max = std::max(
        valid_frac_max, Ratio(static_cast<double>(mp.valid_pages()),
                              static_cast<double>(mp.physical_pages())));
  });
  double wear_spread = 0;
  if (shard::ShardRouter* router = db->database()->shards(); router) {
    for (size_t s = 0; s < router->shard_count(); s++) {
      if (router->regions(s) != nullptr) {
        wear_spread = std::max(wear_spread, router->regions(s)->WearSpread());
      }
    }
  } else if (db->database()->regions() != nullptr) {
    wear_spread = db->database()->regions()->WearSpread();
  }
  m->Set("noftl.region_valid_frac_max", valid_frac_max);
  m->Set("noftl.wear_spread", wear_spread);

  // flash: device stats reset at warmup end (measured phase), except die
  // utilisation: busy-time delta over the whole Run, divided by the sim span
  // from the load's end to the last die-busy horizon.
  const auto kGc = static_cast<int>(flash::OpOrigin::kGc);
  const auto kWl = static_cast<int>(flash::OpOrigin::kWearLevel);
  const auto kMeta = static_cast<int>(flash::OpOrigin::kMeta);
  m->Set("flash.host_read_us_mean", dev.host_read_us.Mean());
  m->Set("flash.host_read_us_p99", dev.host_read_us.P99());
  m->Set("flash.host_write_us_mean", dev.host_write_us.Mean());
  m->Set("flash.host_write_us_p99", dev.host_write_us.P99());
  const double span = static_cast<double>(after.busy_horizon) -
                      static_cast<double>(db->load_end_time());
  double util_sum = 0, util_max = 0;
  for (size_t i = 0; i < after.die_busy.size(); i++) {
    const double u = Ratio(delta(before.die_busy[i], after.die_busy[i]), span);
    util_sum += u;
    util_max = std::max(util_max, u);
  }
  m->Set("flash.die_util_mean",
         Ratio(util_sum, static_cast<double>(after.die_busy.size())));
  m->Set("flash.die_util_max", util_max);
  m->Set("flash.gc_copybacks_per_ktxn",
         1000 * Ratio(static_cast<double>(dev.copybacks[kGc]), committed));
  m->Set("flash.meta_programs_per_ktxn",
         1000 * Ratio(static_cast<double>(dev.programs[kMeta]), committed));
  m->Set("flash.erases_gc_per_ktxn",
         1000 * Ratio(static_cast<double>(dev.erases[kGc]), committed));
  m->Set("flash.erases_wl_per_ktxn",
         1000 * Ratio(static_cast<double>(dev.erases[kWl]), committed));
  m->Set("flash.max_erase_count", static_cast<double>(dev.max_erase_count));

  // sched: scheduler counters, whole Run.
  const double bg_gc_pages = delta(before.bg_gc_pages, after.bg_gc_pages);
  m->Set("sched.offpath_share", Ratio(bg_gc_pages, gc_copybacks));
  m->Set("sched.bg_gc_pages_per_ktxn", 1000 * bg_gc_pages / executed);
  m->Set("sched.idle_grants", delta(before.idle_grants, after.idle_grants));
  m->Set("sched.busy_skips", delta(before.busy_skips, after.busy_skips));
  m->Set("sched.preemptions", delta(before.preemptions, after.preemptions));
  m->Set("sched.bg_erase_deferred",
         delta(before.bg_erase_deferred, after.bg_erase_deferred));

  // mvcc: scan latency over the measured phase, version counters over the
  // whole Run.
  m->Set("mvcc.snapshot_scan_p99_ms", r.response_snapshot_us.P99() / 1000);
  m->Set("mvcc.snapshot_reads_per_ktxn",
         1000 * delta(before.snapshot_reads, after.snapshot_reads) / executed);
  m->Set("mvcc.versions_retained_per_ktxn",
         1000 * delta(before.versions_retained, after.versions_retained) /
             executed);
  m->Set("mvcc.versions_reclaimed_per_ktxn",
         1000 * delta(before.versions_reclaimed, after.versions_reclaimed) /
             executed);

  // shard: scatter/merge counters, whole Run.
  const double merged = delta(before.merged_batches, after.merged_batches);
  const double passthrough =
      delta(before.passthrough_batches, after.passthrough_batches);
  m->Set("shard.merged_batches_per_txn", merged / executed);
  m->Set("shard.scatter_requests_per_txn",
         delta(before.scatter_requests, after.scatter_requests) / executed);
  m->Set("shard.passthrough_share", Ratio(passthrough, merged + passthrough));
  m->Set("shard.extent_spills",
         delta(before.extent_spills, after.extent_spills));
}

// ---------------------------------------------------------------------------

/// One load, one Run() and the checks, on a fresh database.
struct Round {
  std::vector<std::string> errors;
  uint64_t executed = 0;
  uint64_t giveups = 0;
  double setup_s = 0;
  double wall_tps = 0;
  SimPool sim;
  Metrics per_layer;  ///< traced rounds only
};

/// Runs one round. Returns false when the load or the run itself failed;
/// check failures only land in `out->errors`.
bool RunRound(const Workload& w, bool trace, const std::string& trace_out,
              Round* out) {
  out->executed = ExecutedTransactions(w.driver);
  // Declared before the database: the pool keeps pointers to the wrappers
  // until the database is gone.
  Tracer tracer;
  std::vector<std::unique_ptr<TracedPageIo>> wrappers;

  Span load_span;
  load_span.name = SpanName::kDbLoad;
  load_span.id = tracer.NextId();
  load_span.start_ns = WallNowNs();
  auto loaded = tpcc::TpccDb::CreateAndLoad(w.db);
  load_span.end_ns = WallNowNs();
  if (!loaded.ok()) {
    out->errors.push_back("load: " + loaded.status().ToString());
    return false;
  }
  std::unique_ptr<tpcc::TpccDb> db = std::move(*loaded);
  out->setup_s =
      static_cast<double>(load_span.end_ns - load_span.start_ns) / 1e9;

  if (trace) {
    tracer.Record(load_span, /*has_sim_latency=*/false);
    // Tables, plus the per-region tablespaces that hold only indexes.
    std::set<storage::Tablespace*> tablespaces;
    for (storage::HeapFile* heap :
         {db->warehouse, db->district, db->customer, db->history,
          db->new_order, db->order, db->order_line, db->item, db->stock}) {
      tablespaces.insert(heap->tablespace());
    }
    for (const auto& spec : db->options().placement.regions) {
      if (auto* ts = db->database()->GetTablespace("ts_" + spec.region_name)) {
        tablespaces.insert(ts);
      }
    }
    for (storage::Tablespace* ts : tablespaces) {
      wrappers.push_back(std::make_unique<TracedPageIo>(ts, &tracer));
      db->database()->buffer()->RegisterTablespace(wrappers.back().get());
    }
  }

  const RunCounters before = ReadCounters(db.get());
  Span run_span;
  run_span.name = SpanName::kTpccRun;
  run_span.id = tracer.NextId();
  tracer.SetParent(run_span.id);
  const int64_t cpu_start = ProcessCpuNs();
  run_span.start_ns = WallNowNs();
  auto report = tpcc::TpccDriver(db.get(), w.driver).Run();
  run_span.end_ns = WallNowNs();
  const int64_t cpu_end = ProcessCpuNs();
  tracer.SetParent(0);
  if (!report.ok()) {
    out->errors.push_back("run: " + report.status().ToString());
    return false;
  }
  const RunCounters after = ReadCounters(db.get());
  const DeviceCounters dev = ReadDeviceCounters(db->database());

  RunWindow win;
  win.executed = out->executed;
  win.measured = report->transactions + report->rollbacks;
  win.run_wall_ns = static_cast<double>(run_span.end_ns - run_span.start_ns);
  win.run_cpu_ns = static_cast<double>(cpu_end - cpu_start);
  win.driving_threads = std::max<uint32_t>(1, w.driver.worker_threads);

  out->giveups = report->txn_giveups;
  out->wall_tps = Ratio(static_cast<double>(win.executed),
                        win.run_wall_ns / 1e9);
  out->sim.Add(*report, dev);
  if (trace) {
    tracer.Record(run_span, /*has_sim_latency=*/false);
    AddPerLayer(db.get(), *report, dev, before, after, win, tracer,
                &out->per_layer);
    if (!trace_out.empty() && !tracer.WriteJson(trace_out)) {
      out->errors.push_back("cannot write " + trace_out);
    }
  }

  for (std::string& e : CheckDatabase(db.get(), after.busy_horizon)) {
    out->errors.push_back(std::move(e));
  }
  if (report->transactions == 0) {
    out->errors.push_back("no transaction committed");
  }
  return true;
}

/// Per-name mean over rounds (every round emits the same names in order).
Metrics MeanOver(const std::vector<Metrics>& rounds) {
  Metrics mean;
  if (rounds.empty()) return mean;
  mean = rounds[0];
  for (size_t i = 1; i < rounds.size(); i++) {
    for (size_t k = 0; k < mean.values.size(); k++) {
      mean.values[k].second += rounds[i].values[k].second;
    }
  }
  for (auto& [name, v] : mean.values) v /= static_cast<double>(rounds.size());
  return mean;
}

/// Round r's loader seed; far apart so the rounds of runs with nearby seeds
/// never coincide.
uint64_t RoundSeed(uint64_t seed, uint32_t r) {
  return seed + static_cast<uint64_t>(r) * 1000003;
}

/// Wall seconds of one CreateAndLoad of `w`; the database is dropped again.
/// Returns a negative value when the load fails.
double TimeLoad(const Workload& w) {
  const int64_t start = WallNowNs();
  auto loaded = tpcc::TpccDb::CreateAndLoad(w.db);
  const int64_t end = WallNowNs();
  return loaded.ok() ? static_cast<double>(end - start) / 1e9 : -1;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      fprintf(stderr, "expected key=value, got '%s'\n", arg.c_str());
      return 2;
    }
    flags[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  static const std::set<std::string> kKnown = {
      "workload", "seed", "rounds", "trace", "scale", "trace_out", "setup_loads"};
  for (const auto& [key, value] : flags) {
    if (kKnown.count(key) == 0) {
      fprintf(stderr, "unknown flag '%s'\n", key.c_str());
      return 2;
    }
  }
  auto get = [&](const std::string& key, const std::string& def) {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  };
  const std::string name = get("workload", "");
  const uint64_t seed = strtoull(get("seed", "42").c_str(), nullptr, 10);
  const auto rounds =
      static_cast<uint32_t>(strtoul(get("rounds", "1").c_str(), nullptr, 10));
  const bool trace = get("trace", "0") == "1";
  const double scale = strtod(get("scale", "1").c_str(), nullptr);
  const auto setup_loads = static_cast<uint32_t>(
      strtoul(get("setup_loads", "3").c_str(), nullptr, 10));
  if (rounds < 1 || rounds > 64 || !(scale > 0 && scale <= 1) ||
      setup_loads < 1 || setup_loads > 64) {
    fprintf(stderr,
            "rounds and setup_loads must be in [1, 64] and scale in (0, 1]\n");
    return 2;
  }
  Workload probe;
  if (!MakeWorkload(name, seed, scale, &probe)) {
    fprintf(stderr,
            "unknown workload '%s' (tpcc_regions, tpcc_ftl, tpcc_snapshot, "
            "tpcc_threads)\n",
            name.c_str());
    return 2;
  }
  const bool deterministic = probe.driver.worker_threads == 0;

  // Untraced: `rounds` seeds. Traced: each seed runs untraced, then traced,
  // so tracing overhead and sim-metric equality compare like with like.
  const uint32_t seeds = trace ? (rounds + 1) / 2 : rounds;
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  SimPool pool;
  std::vector<double> wall_tps, traced_wall_tps, setup_s;
  std::vector<Metrics> per_layer;
  for (uint32_t r = 0; r < seeds && errors.empty(); r++) {
    Workload w;
    MakeWorkload(name, RoundSeed(seed, r), scale, &w);
    Metrics untraced_sim;
    for (const bool traced : {false, true}) {
      if (traced && !trace) break;
      Round round;
      const bool ran =
          RunRound(w, traced, r == 0 ? get("trace_out", "") : "", &round);
      attempted += round.executed;
      failed += ran ? round.giveups : round.executed;
      for (const std::string& e : round.errors) {
        errors.push_back("round " + std::to_string(r) +
                         (traced ? " traced: " : ": ") + e);
      }
      if (!ran) break;
      setup_s.push_back(round.setup_s);
      Metrics sim;
      round.sim.Emit(&sim);
      if (!traced) {
        wall_tps.push_back(round.wall_tps);
        pool.Merge(round.sim);
        untraced_sim = sim;
        continue;
      }
      traced_wall_tps.push_back(round.wall_tps);
      per_layer.push_back(round.per_layer);
      // The interposer must not change what the simulation computes.
      if (deterministic && ToJson(sim) != ToJson(untraced_sim)) {
        errors.push_back("round " + std::to_string(r) +
                         ": traced sim metrics " + ToJson(sim) +
                         " differ from untraced " + ToJson(untraced_sim));
      }
    }
  }
  // A load is short and its wall time noisy: time round 0's load again until
  // setup_s is a median over at least `setup_loads` loads.
  if (errors.empty()) {
    Workload w;
    MakeWorkload(name, RoundSeed(seed, 0), scale, &w);
    while (setup_s.size() < setup_loads) {
      const double s = TimeLoad(w);
      if (s < 0) {
        errors.push_back("extra load failed");
        break;
      }
      setup_s.push_back(s);
    }
  }

  Metrics metrics;
  pool.Emit(&metrics);
  metrics.Set("setup_s", Median(setup_s));
  metrics.Set("peak_rss_mb", PeakRssMiB());
  metrics.Set("tpcc.wall_tps", Median(wall_tps));
  if (trace) {
    for (const auto& kv : MeanOver(per_layer).values) {
      metrics.Set(kv.first, kv.second);
    }
    metrics.Set("trace.wall_overhead",
                Ratio(Median(wall_tps), Median(traced_wall_tps)) - 1);
  }

  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); i++) {
    errs += (i ? ", " : "") + JsonString(errors[i]);
  }
  errs += "]";
  printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"rounds\": %u, "
         "\"scale\": %.17g, \"deterministic\": %s, \"correct\": %s, "
         "\"errors\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         JsonString(name).c_str(), static_cast<unsigned long long>(seed),
         trace ? 1 : 0, rounds, scale, deterministic ? "true" : "false",
         errors.empty() ? "true" : "false",
         errs.c_str(), static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed), ToJson(metrics).c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace noftl::benchmark

int main(int argc, char** argv) { return noftl::benchmark::Main(argc, argv); }
