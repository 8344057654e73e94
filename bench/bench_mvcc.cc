// Flash-native MVCC: snapshot scans on the out-of-place version store.
//
// Three measurements, one per acceptance gate (ISSUE 10):
//
//   1. drift-free snapshot scans — a mapper-level churn run: fill the
//      space, open a snapshot, then overwrite everything four times
//      (past physical capacity, so GC must erase victims holding
//      snapshot-retained copies), re-scanning the snapshot mid-churn and
//      after a final forced GC sweep. Every scan must
//      produce the byte-identical FNV digest the quiet first scan did, and
//      a never-snapshotted twin running the same writes must end with the
//      identical latest contents (retention pays for reads, never alters
//      writer results).
//   2. writer tax — two deterministic TPC-C runs over the identical
//      per-terminal workload, Stock-Level on MVCC snapshots vs on latest.
//      Write-transaction p99 (NewOrder/Payment/Delivery) with snapshots on
//      must stay <= 1.3x the no-snapshot baseline, and both runs must
//      commit the interleaving-invariant logical digest of the same work.
//   3. incremental checkpoints — full image, then dirty a small fraction
//      of the space and checkpoint again: the delta image must cost
//      <= 25% of the full image's payload bytes.
//
// Flags: lpns=4096 churn_dies=8 churn_blocks=64 dirty_pct=8
//        warehouses=2 txns=3000 warmup=1500 terminals=4 dies=16 channels=8
//        frames=1024 utilization=0.80 seed=42 out=BENCH_mvcc.json
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "flash/device.h"
#include "ftl/mapping.h"
#include "mvcc/snapshot_manager.h"
#include "tpcc/schema.h"

namespace noftl::bench {
namespace {

using flash::OpOrigin;
using ftl::MapperOptions;
using ftl::OutOfPlaceMapper;

// ---------------------------------------------------------------------------
// Part 1: snapshot scan drift under writer churn + GC (mapper level).
// ---------------------------------------------------------------------------

std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

/// One simulated device + mapper wired to its own snapshot manager.
struct ChurnStack {
  ChurnStack(const flash::FlashGeometry& g, uint64_t logical_pages,
             MapperOptions base, bool wire_snapshots)
      : geo(g), device(geo, flash::FlashTiming{}) {
    MapperOptions options = base;
    if (wire_snapshots) options.snapshots = snapshots.horizon();
    mapper = std::make_unique<OutOfPlaceMapper>(&device, AllDies(geo),
                                                logical_pages, options);
    if (wire_snapshots) snapshots.RegisterMapper(mapper.get());
  }
  ~ChurnStack() {
    if (mapper != nullptr) snapshots.UnregisterMapper(mapper.get());
  }

  std::vector<char> Page(uint64_t lpn, uint32_t round) const {
    std::vector<char> data(geo.page_size);
    for (size_t i = 0; i < data.size(); i++) {
      data[i] = static_cast<char>((lpn * 131 + round * 29 + i * 7) & 0xFF);
    }
    return data;
  }

  bool WriteRound(uint64_t pages, uint32_t round) {
    for (uint64_t lpn = 0; lpn < pages; lpn++) {
      auto data = Page(lpn, round);
      Status s = mapper->Write(lpn, now, OpOrigin::kHost, data.data(),
                               /*object_id=*/1, &now);
      if (!s.ok()) {
        fprintf(stderr, "churn write lpn %llu round %u: %s\n",
                static_cast<unsigned long long>(lpn), round,
                s.ToString().c_str());
        return false;
      }
    }
    return true;
  }

  /// FNV-1a over every page readable at `read_seq` (0 = latest), folded
  /// with the lpn so a cross-lpn swap cannot cancel out.
  uint64_t ScanDigest(uint64_t read_seq, bool* ok) {
    uint64_t h = 14695981039346656037ull;
    auto fold = [&h](uint64_t v) {
      for (int i = 0; i < 8; i++) {
        h ^= (v >> (i * 8)) & 0xFF;
        h *= 1099511628211ull;
      }
    };
    std::vector<char> data(geo.page_size);
    for (uint64_t lpn = 0; lpn < mapper->logical_pages(); lpn++) {
      Status s =
          mapper->Read(lpn, now, OpOrigin::kHost, data.data(), &now, read_seq);
      if (s.IsNotFound()) continue;
      if (!s.ok()) {
        fprintf(stderr, "scan read lpn %llu: %s\n",
                static_cast<unsigned long long>(lpn), s.ToString().c_str());
        *ok = false;
        return 0;
      }
      fold(lpn);
      for (char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
    }
    return h;
  }

  flash::FlashGeometry geo;
  flash::FlashDevice device;
  mvcc::SnapshotManager snapshots;
  std::unique_ptr<OutOfPlaceMapper> mapper;
  SimTime now = 0;
};

struct ChurnResult {
  bool ok = false;
  bool drift_free = false;
  bool writers_identical = false;
  uint64_t scan_digest = 0;
  uint64_t versions_retained_peak = 0;
  uint64_t versions_reclaimed = 0;
  uint64_t snapshot_reads = 0;
  uint64_t gc_erases = 0;
};

ChurnResult RunChurn(const Flags& flags) {
  ChurnResult r;
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel =
      static_cast<uint32_t>(flags.GetInt("churn_dies", 8)) / geo.channels;
  if (geo.dies_per_channel == 0) geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("churn_blocks", 64));
  geo.pages_per_block = 32;
  geo.page_size = 2048;
  // Live + one fully retained round must fit with GC headroom: the
  // snapshot pins the entire round-1 space while rounds 2 and 3 land.
  const uint64_t lpns = flags.GetInt("lpns", 4096);

  ChurnStack snap_stack(geo, lpns, MapperOptions{}, /*wire_snapshots=*/true);
  ChurnStack twin(geo, lpns, MapperOptions{}, /*wire_snapshots=*/false);

  if (!snap_stack.WriteRound(lpns, 1) || !twin.WriteRound(lpns, 1)) return r;
  const uint64_t snap = snap_stack.snapshots.Open();

  // Quiet scan: no writer ran since the snapshot opened.
  bool scan_ok = true;
  const uint64_t quiet = snap_stack.ScanDigest(snap, &scan_ok);
  if (!scan_ok) return r;

  // Churn round 2, re-scan mid-churn, then keep overwriting until the
  // cumulative writes exceed physical capacity — natural GC then must
  // erase victims holding copies retained for the snapshot — and scan
  // once more after a final forced sweep. The twin runs the identical
  // writes with no snapshot.
  if (!snap_stack.WriteRound(lpns, 2) || !twin.WriteRound(lpns, 2)) return r;
  r.versions_retained_peak = snap_stack.mapper->retained_versions();
  const uint64_t mid_churn = snap_stack.ScanDigest(snap, &scan_ok);
  if (!scan_ok) return r;
  for (uint32_t round = 3; round <= 5; round++) {
    if (!snap_stack.WriteRound(lpns, round) || !twin.WriteRound(lpns, round)) {
      return r;
    }
  }
  Status gc = snap_stack.mapper->ForceGc(snap_stack.now);
  if (!gc.ok()) {
    fprintf(stderr, "ForceGc: %s\n", gc.ToString().c_str());
    return r;
  }
  const uint64_t post_gc = snap_stack.ScanDigest(snap, &scan_ok);
  if (!scan_ok) return r;

  Status integrity = snap_stack.mapper->VerifyIntegrity();
  if (!integrity.ok()) {
    fprintf(stderr, "VerifyIntegrity: %s\n", integrity.ToString().c_str());
    return r;
  }
  const uint64_t latest_snap = snap_stack.ScanDigest(0, &scan_ok);
  const uint64_t latest_twin = twin.ScanDigest(0, &scan_ok);
  if (!scan_ok) return r;

  snap_stack.snapshots.Release(snap);

  r.ok = true;
  r.drift_free = quiet == mid_churn && mid_churn == post_gc;
  r.writers_identical = latest_snap == latest_twin;
  r.scan_digest = quiet;
  r.versions_reclaimed =
      snap_stack.mapper->stats().versions_reclaimed.load();
  r.snapshot_reads = snap_stack.mapper->stats().snapshot_reads.load();
  r.gc_erases = snap_stack.mapper->stats().gc_erases;
  return r;
}

// ---------------------------------------------------------------------------
// Part 2: TPC-C writer tax — Stock-Level on snapshots vs on latest.
// ---------------------------------------------------------------------------

/// Interleaving-invariant logical digest of the committed work (same idea
/// as the sharding bench): row counts plus order-number and payment-count
/// sums — no timestamps, which legitimately shift when snapshot opens
/// flush buffers and change I/O completion times.
struct TpccDigest {
  uint64_t orders = 0;
  uint64_t order_lines = 0;
  uint64_t new_orders = 0;
  uint64_t history_rows = 0;
  uint64_t delivered_orders = 0;
  uint64_t sum_next_o_id = 0;
  uint64_t sum_payment_cnt = 0;

  bool operator==(const TpccDigest&) const = default;
};

TpccDigest DigestTpcc(tpcc::TpccDb* db, bool* ok) {
  TpccDigest d;
  txn::TxnContext ctx;
  ctx.now = db->load_end_time();
  d.orders = db->order->record_count();
  d.order_lines = db->order_line->record_count();
  d.new_orders = db->new_order->record_count();
  d.history_rows = db->history->record_count();
  Status s = db->district->Scan(&ctx, [&](storage::RecordId, Slice row) {
    tpcc::DistrictRow dr;
    memcpy(&dr, row.data(), sizeof(dr));
    d.sum_next_o_id += static_cast<uint64_t>(dr.next_o_id);
    return true;
  });
  if (s.ok()) {
    s = db->customer->Scan(&ctx, [&](storage::RecordId, Slice row) {
      tpcc::CustomerRow cr;
      memcpy(&cr, row.data(), sizeof(cr));
      d.sum_payment_cnt += static_cast<uint64_t>(cr.payment_cnt);
      return true;
    });
  }
  if (s.ok()) {
    s = db->order->Scan(&ctx, [&](storage::RecordId, Slice row) {
      tpcc::OrderRow orow;
      memcpy(&orow, row.data(), sizeof(orow));
      if (orow.carrier_id != 0) d.delivered_orders++;
      return true;
    });
  }
  if (!s.ok()) {
    fprintf(stderr, "digest scan failed: %s\n", s.ToString().c_str());
    *ok = false;
  }
  return d;
}

struct TpccPoint {
  std::string label;
  double tps = 0;
  double writer_p50 = 0;
  double writer_p99 = 0;
  double stocklevel_mean_ms = 0;
  double snapshot_scan_mean_ms = 0;
  uint64_t snapshot_scans = 0;
  uint64_t transactions = 0;
  TpccDigest digest;
  bool digest_ok = true;
};

TpccPoint RunTpccPoint(const Flags& flags, const std::string& label,
                       bool snapshot_stocklevel) {
  TpccBenchConfig config = TpccBenchConfig::FromFlags(flags);
  config.warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", 2));
  config.transactions = flags.GetInt("txns", 3000);
  config.warmup = flags.GetInt("warmup", 1500);
  config.terminals = static_cast<uint32_t>(flags.GetInt("terminals", 4));
  config.dies = static_cast<uint32_t>(flags.GetInt("dies", 16));
  config.channels = static_cast<uint32_t>(flags.GetInt("channels", 8));

  tpcc::TpccDbOptions options;
  options.db = config.DbOptions();
  options.scale = config.Scale();
  options.placement = tpcc::TraditionalPlacement(config.dies);
  options.seed = config.seed;

  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) {
    fprintf(stderr, "TPC-C load (%s) failed: %s\n", label.c_str(),
            db.status().ToString().c_str());
    exit(1);
  }

  tpcc::DriverOptions driver_options;
  driver_options.terminals = config.terminals;
  driver_options.max_transactions = config.transactions;
  driver_options.warmup_transactions = config.warmup;
  driver_options.seed = config.seed + 1;
  driver_options.snapshot_stocklevel = snapshot_stocklevel;
  tpcc::TpccDriver driver(db->get(), driver_options);
  auto report = driver.Run();
  if (!report.ok()) {
    fprintf(stderr, "TPC-C run (%s) failed: %s\n", label.c_str(),
            report.status().ToString().c_str());
    exit(1);
  }

  // Writer latency: the transactions that mutate state. Stock-Level (the
  // scan the snapshot serves) is excluded — it is the beneficiary, not the
  // payer.
  Histogram writers;
  writers.Merge(report->response_us[static_cast<int>(tpcc::TxnType::kNewOrder)]);
  writers.Merge(report->response_us[static_cast<int>(tpcc::TxnType::kPayment)]);
  writers.Merge(report->response_us[static_cast<int>(tpcc::TxnType::kDelivery)]);

  TpccPoint p;
  p.label = label;
  p.tps = report->tps;
  p.writer_p50 = writers.P50();
  p.writer_p99 = writers.P99();
  p.stocklevel_mean_ms = report->MeanResponseMs(tpcc::TxnType::kStockLevel);
  p.snapshot_scan_mean_ms = report->response_snapshot_us.Mean() / 1000.0;
  p.snapshot_scans = report->response_snapshot_us.count();
  p.transactions = report->transactions;
  p.digest = DigestTpcc(db->get(), &p.digest_ok);
  return p;
}

// ---------------------------------------------------------------------------
// Part 3: incremental checkpoint payload vs the full image.
// ---------------------------------------------------------------------------

struct CkptResult {
  bool ok = false;
  uint64_t full_bytes = 0;
  uint64_t incr_bytes = 0;
  uint64_t dirty_lpns = 0;
  uint64_t lpns = 0;
  double incr_ratio = 0;
};

CkptResult RunCkpt(const Flags& flags) {
  CkptResult r;
  flash::FlashGeometry geo;
  geo.channels = 4;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("churn_blocks", 64));
  geo.pages_per_block = 32;
  geo.page_size = 2048;
  const uint64_t lpns = flags.GetInt("lpns", 4096);
  const uint64_t dirty_pct = flags.GetInt("dirty_pct", 8);

  MapperOptions options;
  options.checkpoint_slots = 4;
  ChurnStack st(geo, lpns, options, /*wire_snapshots=*/false);
  if (!st.WriteRound(lpns, 1)) return r;
  Status s = st.mapper->WriteCheckpoint(st.now, &st.now);
  if (!s.ok()) {
    fprintf(stderr, "full checkpoint: %s\n", s.ToString().c_str());
    return r;
  }
  r.full_bytes = st.mapper->stats().ckpt_bytes_full.load();

  // Dirty a small slice (a checkpoint-interval's worth of updates), then
  // checkpoint again: with a valid full base this rides the delta path.
  r.dirty_lpns = lpns * dirty_pct / 100;
  for (uint64_t i = 0; i < r.dirty_lpns; i++) {
    const uint64_t lpn = (i * 37) % lpns;
    auto data = st.Page(lpn, 2);
    s = st.mapper->Write(lpn, st.now, OpOrigin::kHost, data.data(), 1,
                         &st.now);
    if (!s.ok()) {
      fprintf(stderr, "dirty write: %s\n", s.ToString().c_str());
      return r;
    }
  }
  s = st.mapper->WriteCheckpoint(st.now, &st.now);
  if (!s.ok()) {
    fprintf(stderr, "incremental checkpoint: %s\n", s.ToString().c_str());
    return r;
  }
  if (st.mapper->stats().ckpt_incr_written.load() == 0) {
    fprintf(stderr, "second checkpoint did not take the incremental path\n");
    return r;
  }
  r.incr_bytes = st.mapper->stats().ckpt_bytes_incr.load();
  r.lpns = lpns;
  r.incr_ratio = r.full_bytes > 0
                     ? static_cast<double>(r.incr_bytes) /
                           static_cast<double>(r.full_bytes)
                     : 1.0;
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------

JsonObject TpccJson(const TpccPoint& p) {
  JsonObject o;
  o.Set("label", p.label)
      .Set("tps", p.tps)
      .Set("writer_p50_us", p.writer_p50)
      .Set("writer_p99_us", p.writer_p99)
      .Set("stocklevel_mean_ms", p.stocklevel_mean_ms)
      .Set("snapshot_scan_mean_ms", p.snapshot_scan_mean_ms)
      .Set("snapshot_scans", p.snapshot_scans)
      .Set("transactions", p.transactions);
  return o;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);

  printf("Flash-native MVCC: snapshot scans on the version store\n\n");
  printf("running snapshot-vs-churn scan (drift check)...\n");
  const ChurnResult churn = RunChurn(flags);
  if (!churn.ok) {
    fprintf(stderr, "ACCEPTANCE FAILED\n");
    return 1;
  }
  printf("  snapshot scans: digest %016llx, drift_free=%d, "
         "writers_identical=%d\n"
         "  retained peak %llu, reclaimed %llu, snapshot reads %llu, "
         "gc erases %llu\n",
         static_cast<unsigned long long>(churn.scan_digest),
         churn.drift_free ? 1 : 0, churn.writers_identical ? 1 : 0,
         static_cast<unsigned long long>(churn.versions_retained_peak),
         static_cast<unsigned long long>(churn.versions_reclaimed),
         static_cast<unsigned long long>(churn.snapshot_reads),
         static_cast<unsigned long long>(churn.gc_erases));

  printf("\nrunning TPC-C baseline (Stock-Level on latest)...\n");
  const TpccPoint base = RunTpccPoint(flags, "latest", false);
  printf("running TPC-C with Stock-Level on snapshots...\n\n");
  const TpccPoint snap = RunTpccPoint(flags, "snapshot", true);

  printf("%-10s | %8s %12s %12s %14s %10s\n", "mode", "TPS", "writer p50",
         "writer p99", "stocklevel ms", "snapshots");
  PrintRule(76);
  for (const TpccPoint* p : {&base, &snap}) {
    printf("%-10s | %8.1f %12.1f %12.1f %14.2f %10llu\n", p->label.c_str(),
           p->tps, p->writer_p50, p->writer_p99, p->stocklevel_mean_ms,
           static_cast<unsigned long long>(p->snapshot_scans));
  }
  const double writer_tax =
      base.writer_p99 > 0 ? snap.writer_p99 / base.writer_p99 : 0.0;
  const bool digests_match =
      base.digest_ok && snap.digest_ok && base.digest == snap.digest;
  printf("\nwriter p99 with snapshot scans = %.2fx baseline (gate <= 1.3)\n",
         writer_tax);
  printf("committed-work digests %s\n",
         digests_match ? "match" : "DIFFER");

  printf("\nrunning incremental checkpoint sizing...\n");
  const CkptResult ckpt = RunCkpt(flags);
  if (!ckpt.ok) {
    fprintf(stderr, "ACCEPTANCE FAILED\n");
    return 1;
  }
  printf("  full image %llu bytes, delta (%llu/%llu lpns dirty) %llu bytes "
         "= %.1f%% (gate <= 25%%)\n",
         static_cast<unsigned long long>(ckpt.full_bytes),
         static_cast<unsigned long long>(ckpt.dirty_lpns),
         static_cast<unsigned long long>(ckpt.lpns),
         static_cast<unsigned long long>(ckpt.incr_bytes),
         100.0 * ckpt.incr_ratio);

  JsonObject config;
  config.Set("lpns", flags.GetInt("lpns", 4096))
      .Set("warehouses", flags.GetInt("warehouses", 2))
      .Set("txns", flags.GetInt("txns", 3000))
      .Set("warmup", flags.GetInt("warmup", 1500))
      .Set("dies", flags.GetInt("dies", 16))
      .Set("dirty_pct", flags.GetInt("dirty_pct", 8))
      .Set("seed", flags.GetInt("seed", 42));

  JsonObject churn_json;
  churn_json.Set("drift_free", churn.drift_free ? 1 : 0)
      .Set("writers_identical", churn.writers_identical ? 1 : 0)
      .Set("versions_retained_peak", churn.versions_retained_peak)
      .Set("versions_reclaimed", churn.versions_reclaimed)
      .Set("snapshot_reads", churn.snapshot_reads)
      .Set("gc_erases", churn.gc_erases);

  JsonObject ckpt_json;
  ckpt_json.Set("full_bytes", ckpt.full_bytes)
      .Set("incr_bytes", ckpt.incr_bytes)
      .Set("dirty_lpns", ckpt.dirty_lpns)
      .Set("incr_ratio", ckpt.incr_ratio);

  JsonObject out;
  out.Set("bench", std::string("mvcc"))
      .Set("config", config)
      .Set("churn", churn_json)
      .SetArray("tpcc", {TpccJson(base), TpccJson(snap)})
      .Set("writer_p99_vs_baseline", writer_tax)
      .Set("digests_match", digests_match ? 1 : 0)
      .Set("checkpoint", ckpt_json);

  const std::string path = flags.GetString("out", "BENCH_mvcc.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());

  // Exit gates (ISSUE 10).
  bool ok = true;
  if (!churn.drift_free) {
    fprintf(stderr, "GATE FAILED: snapshot scan digests drifted under "
                    "writer churn / GC\n");
    ok = false;
  }
  if (!churn.writers_identical) {
    fprintf(stderr, "GATE FAILED: snapshot retention changed writer-visible "
                    "contents\n");
    ok = false;
  }
  if (churn.snapshot_reads == 0 || churn.versions_retained_peak == 0 ||
      churn.gc_erases == 0) {
    fprintf(stderr, "GATE FAILED: churn run exercised no snapshot reads, "
                    "retained versions or GC victim erases\n");
    ok = false;
  }
  if (!digests_match) {
    fprintf(stderr, "GATE FAILED: TPC-C committed-work digests differ "
                    "between snapshot and latest runs\n");
    ok = false;
  }
  if (snap.snapshot_scans == 0) {
    fprintf(stderr, "GATE FAILED: no Stock-Level ran on a snapshot\n");
    ok = false;
  }
  if (!(writer_tax <= 1.3)) {
    fprintf(stderr, "GATE FAILED: writer p99 %.1f us > 1.3x baseline "
                    "%.1f us\n",
            snap.writer_p99, base.writer_p99);
    ok = false;
  }
  if (!(ckpt.incr_ratio <= 0.25)) {
    fprintf(stderr, "GATE FAILED: incremental checkpoint %llu bytes > 25%% "
                    "of full image %llu bytes\n",
            static_cast<unsigned long long>(ckpt.incr_bytes),
            static_cast<unsigned long long>(ckpt.full_bytes));
    ok = false;
  }
  if (!ok) fprintf(stderr, "ACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
