// Sharded multi-device scale-out: 1/2/4/8-shard scaling curves.
//
// The shard router stripes the logical page space across N independent
// simulated flash devices (each a full device + region + mapper stack) and
// merges their completion streams behind one SpaceProvider. This bench
// measures what that buys — the shared-nothing scale-out step on top of the
// async/batched/completion-queue work of PRs 3-4:
//
//   1. random multi-get: rounds of K random page reads, one merged batch per
//      round. More shards = more dies behind the same logical space, so the
//      per-round critical path (max-loaded die) shrinks;
//   2. striped scan: sequential chunks; extents round-robin across shards,
//      so one chunk fans out over every device;
//   3. GC churn: batched random overwrites at high utilization. Sharding
//      both adds parallelism and divides utilization per device, which is
//      exactly how scale-out tames GC;
//   4. sharded-by-warehouse TPC-C: W warehouses pinned to shards by the
//      placement key (ShardPlacement::kByKey + warehouse hints), one
//      terminal per warehouse. TPS scales because each warehouse's I/O
//      lands on its own device.
//
// Every microbench run verifies the bytes it reads against the generated
// pattern and folds them into an FNV digest compared against the 1-shard
// run: identical logical contents, regardless of shard count. The TPC-C
// comparison uses an interleaving-invariant logical digest (row counts,
// district next_o_id sums, customer payment counts, delivered orders) —
// per-row timestamps depend on simulated I/O timing and differ across
// shard counts by construction.
//
// Flags: dies_per_shard=4 channels=4 blocks=128 batch=128 rounds=300
//        populate_pages=16384 scan_chunk=256 churn_rounds=300
//        warehouses=8 txns=3000 warmup=1000 items=10000 seed=42
//        out=BENCH_sharding.json
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "shard/shard_router.h"
#include "shard/sharded_space.h"
#include "tpcc/schema.h"

namespace noftl::bench {
namespace {

using flash::FlashGeometry;
using flash::FlashTiming;
using shard::ShardedSpace;
using shard::ShardPlacement;
using shard::ShardRouter;
using storage::IoBatch;

constexpr uint32_t kExtentPages = 32;

FlashGeometry PerShardGeometry(const Flags& flags) {
  FlashGeometry geo;
  geo.channels = static_cast<uint32_t>(flags.GetInt("channels", 4));
  geo.dies_per_channel =
      static_cast<uint32_t>(flags.GetInt("dies_per_shard", 4)) / geo.channels;
  if (geo.dies_per_channel == 0) geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 128));
  geo.pages_per_block = 64;
  geo.page_size = 4096;
  return geo;
}

/// N-shard stack: router (one device+region+mapper per shard) behind one
/// striped ShardedSpace.
struct ShardedMicro {
  ShardedMicro(size_t n, const FlashGeometry& geo) {
    shard::ShardRouterOptions ro;
    ro.shard.shard_count = static_cast<uint32_t>(n);
    ro.shard.placement = ShardPlacement::kStripe;
    ro.backend = shard::ShardBackend::kNoFtl;
    ro.geometry = geo;
    auto r = ShardRouter::Open(ro);
    if (!r.ok()) {
      fprintf(stderr, "router open failed: %s\n", r.status().ToString().c_str());
      exit(1);
    }
    router = std::move(*r);
    region::RegionOptions rgo;
    rgo.name = "rg";
    rgo.max_chips = geo.total_dies();
    auto sp = router->CreateRegion(rgo);
    if (!sp.ok()) {
      fprintf(stderr, "region fan-out failed: %s\n",
              sp.status().ToString().c_str());
      exit(1);
    }
    space = *sp;
  }

  SimTime Horizon() const {
    SimTime t = 0;
    for (size_t s = 0; s < router->shard_count(); s++) {
      auto* dev = const_cast<ShardedMicro*>(this)->router->device(s);
      for (uint32_t d = 0; d < dev->geometry().total_dies(); d++) {
        t = std::max(t, dev->DieBusyUntil(d));
      }
    }
    return t;
  }

  std::unique_ptr<ShardRouter> router;
  ShardedSpace* space = nullptr;
};

void FillPattern(uint64_t tag, char* buf, uint32_t page_size) {
  for (uint32_t i = 0; i < page_size; i++) {
    buf[i] = static_cast<char>((tag * 1315423911u + i * 2654435761u) >> 7);
  }
}

/// The logical data set: `pages` pages addressed by index, mapped to
/// provider lpns through the striped extent table. `tags` holds the last
/// pattern written per page (identical across shard counts by construction).
struct DataSet {
  std::vector<uint64_t> extent_base;
  std::vector<uint64_t> tags;
  uint32_t page_size = 0;

  uint64_t Lpn(uint64_t page) const {
    return extent_base[page / kExtentPages] + page % kExtentPages;
  }
  uint64_t pages() const { return tags.size(); }
};

DataSet Populate(ShardedMicro* m, uint64_t pages, const FlashGeometry& geo) {
  DataSet ds;
  ds.page_size = geo.page_size;
  ds.tags.assign(pages, 0);
  for (uint64_t e = 0; e * kExtentPages < pages; e++) {
    auto base = m->space->AllocateExtent(kExtentPages);
    if (!base.ok()) {
      fprintf(stderr, "populate alloc failed: %s\n",
              base.status().ToString().c_str());
      exit(1);
    }
    ds.extent_base.push_back(*base);
  }
  std::vector<char> buf(geo.page_size);
  std::vector<std::vector<char>> bufs(kExtentPages,
                                      std::vector<char>(geo.page_size));
  SimTime t = 0;
  for (uint64_t base = 0; base < pages; base += kExtentPages) {
    IoBatch batch;
    const uint64_t n = std::min<uint64_t>(kExtentPages, pages - base);
    for (uint64_t i = 0; i < n; i++) {
      ds.tags[base + i] = base + i;
      FillPattern(base + i, bufs[i].data(), geo.page_size);
      batch.AddWrite(ds.Lpn(base + i), bufs[i].data(), 1);
    }
    SimTime done = t;
    if (!m->space->RunBatch(&batch, t, &done).ok() ||
        !batch.FirstError().ok()) {
      fprintf(stderr, "populate write failed\n");
      exit(1);
    }
    t = done;
  }
  return ds;
}

struct MicroRun {
  SimTime elapsed_us = 0;
  uint64_t pages_done = 0;
  bool contents_ok = true;

  double KPagesPerSec() const {
    return elapsed_us ? static_cast<double>(pages_done) * 1e6 / 1e3 /
                            static_cast<double>(elapsed_us)
                      : 0.0;
  }
};

/// Batched reads of the given page-index schedule; verifies every page
/// against its expected pattern.
MicroRun RunReads(ShardedMicro* m, const DataSet& ds,
                  const std::vector<std::vector<uint64_t>>& rounds) {
  MicroRun run;
  const SimTime start = m->Horizon();
  SimTime t = start;
  std::vector<char> expect(ds.page_size);
  size_t max_round = 0;
  for (const auto& round : rounds) max_round = std::max(max_round, round.size());
  std::vector<std::vector<char>> bufs(max_round,
                                      std::vector<char>(ds.page_size));
  for (const auto& round : rounds) {
    IoBatch batch;
    for (size_t i = 0; i < round.size(); i++) {
      batch.AddRead(ds.Lpn(round[i]), bufs[i].data());
    }
    SimTime done = t;
    if (!m->space->RunBatch(&batch, t, &done).ok() ||
        !batch.FirstError().ok()) {
      fprintf(stderr, "read round failed\n");
      exit(1);
    }
    t = done;
    for (size_t i = 0; i < round.size(); i++) {
      FillPattern(ds.tags[round[i]], expect.data(), ds.page_size);
      if (memcmp(bufs[i].data(), expect.data(), ds.page_size) != 0) {
        run.contents_ok = false;
      }
      run.pages_done++;
    }
  }
  run.elapsed_us = t - start;
  return run;
}

/// Batched overwrites (page index, new tag); drives GC at high utilization.
MicroRun RunChurn(ShardedMicro* m, DataSet* ds,
                  const std::vector<std::vector<std::pair<uint64_t, uint64_t>>>&
                      rounds) {
  MicroRun run;
  const SimTime start = m->Horizon();
  SimTime t = start;
  size_t max_round = 0;
  for (const auto& round : rounds) max_round = std::max(max_round, round.size());
  std::vector<std::vector<char>> bufs(max_round,
                                      std::vector<char>(ds->page_size));
  for (const auto& round : rounds) {
    IoBatch batch;
    for (size_t i = 0; i < round.size(); i++) {
      const auto [page, tag] = round[i];
      ds->tags[page] = tag;
      FillPattern(tag, bufs[i].data(), ds->page_size);
      batch.AddWrite(ds->Lpn(page), bufs[i].data(), 1);
    }
    SimTime done = t;
    if (!m->space->RunBatch(&batch, t, &done).ok() ||
        !batch.FirstError().ok()) {
      fprintf(stderr, "churn round failed\n");
      exit(1);
    }
    t = done;
    run.pages_done += round.size();
  }
  run.elapsed_us = t - start;
  return run;
}

/// FNV-1a digest over every page of the data set (read back in index order,
/// verified against the expected pattern on the way).
uint64_t DigestContents(ShardedMicro* m, const DataSet& ds, bool* ok) {
  uint64_t h = 1469598103934665603ull;
  std::vector<char> buf(ds.page_size);
  std::vector<char> expect(ds.page_size);
  SimTime t = m->Horizon();
  for (uint64_t p = 0; p < ds.pages(); p++) {
    SimTime done = t;
    if (!m->space->ReadPage(ds.Lpn(p), t, buf.data(), &done).ok()) {
      fprintf(stderr, "digest read failed\n");
      exit(1);
    }
    t = done;
    FillPattern(ds.tags[p], expect.data(), ds.page_size);
    if (memcmp(buf.data(), expect.data(), ds.page_size) != 0) *ok = false;
    for (uint32_t i = 0; i < ds.page_size; i++) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  return h;
}

struct ShardPoint {
  uint64_t shards = 0;
  MicroRun multiget;
  MicroRun scan;
  MicroRun churn;
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
  uint64_t digest = 0;
  bool digest_ok = true;
};

ShardPoint RunMicroAt(const Flags& flags, const FlashGeometry& geo,
                      uint64_t shards) {
  ShardPoint point;
  point.shards = shards;

  ShardedMicro m(shards, geo);
  const uint64_t pages = flags.GetInt("populate_pages", 16384);
  DataSet ds = Populate(&m, pages, geo);

  Rng rng(flags.GetInt("seed", 42));
  const uint64_t k = flags.GetInt("batch", 128);
  const uint64_t n_rounds = flags.GetInt("rounds", 300);
  std::vector<std::vector<uint64_t>> mg_rounds(n_rounds);
  for (auto& round : mg_rounds) {
    round.resize(k);
    for (auto& p : round) p = rng.Below(pages);
  }
  point.multiget = RunReads(&m, ds, mg_rounds);

  const uint64_t chunk = flags.GetInt("scan_chunk", 256);
  std::vector<std::vector<uint64_t>> scan_rounds;
  for (uint64_t base = 0; base < pages; base += chunk) {
    std::vector<uint64_t> round;
    for (uint64_t p = base; p < std::min(base + chunk, pages); p++) {
      round.push_back(p);
    }
    scan_rounds.push_back(std::move(round));
  }
  point.scan = RunReads(&m, ds, scan_rounds);

  const uint64_t churn_rounds = flags.GetInt("churn_rounds", 300);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> churn(churn_rounds);
  uint64_t tag = pages;
  for (auto& round : churn) {
    round.resize(k);
    for (auto& [p, t] : round) {
      p = rng.Below(pages);
      t = tag++;
    }
  }
  point.churn = RunChurn(&m, &ds, churn);
  for (size_t s = 0; s < m.router->shard_count(); s++) {
    const auto& stats = m.router->region(s, "rg")->stats();
    point.gc_copybacks += stats.gc_copybacks;
    point.gc_erases += stats.gc_erases;
  }

  point.digest = DigestContents(&m, ds, &point.digest_ok);
  return point;
}

// ---------------------------------------------------------------------------
// Sharded-by-warehouse TPC-C.
// ---------------------------------------------------------------------------

/// Interleaving-invariant logical digest: counters and counts only — no
/// timestamps (they track simulated I/O completion times, which legitimately
/// differ across shard counts), no float accumulation order.
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

TpccDigest DigestTpcc(tpcc::TpccDb* db) {
  TpccDigest d;
  txn::TxnContext ctx;
  ctx.now = db->load_end_time();
  auto count = [&](storage::HeapFile* heap) { return heap->record_count(); };
  d.orders = count(db->order);
  d.order_lines = count(db->order_line);
  d.new_orders = count(db->new_order);
  d.history_rows = count(db->history);
  Status s = db->district->Scan(
      &ctx, [&](storage::RecordId, Slice row) {
        tpcc::DistrictRow dr;
        memcpy(&dr, row.data(), sizeof(dr));
        d.sum_next_o_id += static_cast<uint64_t>(dr.next_o_id);
        return true;
      });
  if (!s.ok()) exit(1);
  s = db->customer->Scan(&ctx, [&](storage::RecordId, Slice row) {
    tpcc::CustomerRow cr;
    memcpy(&cr, row.data(), sizeof(cr));
    d.sum_payment_cnt += static_cast<uint64_t>(cr.payment_cnt);
    return true;
  });
  if (!s.ok()) exit(1);
  s = db->order->Scan(&ctx, [&](storage::RecordId, Slice row) {
    tpcc::OrderRow orow;
    memcpy(&orow, row.data(), sizeof(orow));
    if (orow.carrier_id != 0) d.delivered_orders++;
    return true;
  });
  if (!s.ok()) exit(1);
  return d;
}

struct TpccPoint {
  uint64_t shards = 0;
  double tps = 0;
  double neworder_ms = 0;
  // Foreground latency over the whole transaction mix: scale-out must
  // improve the tail, not just the mean throughput.
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t transactions = 0;
  TpccDigest digest;
};

TpccPoint RunTpccAt(const Flags& flags, uint64_t shards) {
  const auto warehouses =
      static_cast<uint32_t>(flags.GetInt("warehouses", 8));
  tpcc::TpccScale scale;
  scale.warehouses = warehouses;
  scale.items = static_cast<uint32_t>(flags.GetInt("items", 10000));
  scale.customers_per_district =
      static_cast<uint32_t>(flags.GetInt("customers", 600));
  scale.initial_orders_per_district =
      static_cast<uint32_t>(flags.GetInt("orders", 300));
  scale.initial_new_orders_per_district =
      static_cast<uint32_t>(flags.GetInt("new_orders", 90));

  const uint64_t txns = flags.GetInt("txns", 3000);
  const uint64_t warmup = flags.GetInt("warmup", 1000);
  const uint64_t expected_new_orders = (txns + warmup) * 45 / 100;

  // Per-shard device shape is FIXED across shard counts (scale-out adds
  // devices); it must hold the whole database in the 1-shard run.
  const auto dies_per_shard =
      static_cast<uint32_t>(flags.GetInt("tpcc_dies_per_shard", 8));
  db::DatabaseOptions dbo;
  dbo.geometry.channels = dies_per_shard;
  dbo.geometry.dies_per_channel = 1;
  dbo.geometry.pages_per_block = 64;
  dbo.geometry.page_size = 4096;
  dbo.geometry.blocks_per_die = tpcc::SuggestBlocksPerDie(
      scale, dbo.geometry.page_size, expected_new_orders, dies_per_shard,
      dbo.geometry.pages_per_block,
      flags.GetDouble("utilization", 0.80));
  dbo.buffer.frame_count = static_cast<uint32_t>(flags.GetInt("frames", 1024));
  dbo.buffer.flush_batch = 16;
  dbo.buffer.flush_high_water = 0.20;
  dbo.sharding.shard_count = static_cast<uint32_t>(shards);
  dbo.sharding.placement = ShardPlacement::kByKey;

  tpcc::TpccDbOptions options;
  options.db = dbo;
  options.scale = scale;
  options.placement = tpcc::TraditionalPlacement(dies_per_shard);
  options.seed = flags.GetInt("seed", 42);
  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) {
    fprintf(stderr, "TPC-C load (%llu shards) failed: %s\n",
            static_cast<unsigned long long>(shards),
            db.status().ToString().c_str());
    exit(1);
  }

  tpcc::DriverOptions driver_options;
  driver_options.terminals = warehouses;  // one terminal per warehouse
  driver_options.max_transactions = txns;
  driver_options.warmup_transactions = warmup;
  driver_options.seed = flags.GetInt("seed", 42) + 1;
  driver_options.batched_io = true;
  tpcc::TpccDriver driver(db->get(), driver_options);
  auto report = driver.Run();
  if (!report.ok()) {
    fprintf(stderr, "TPC-C run failed: %s\n",
            report.status().ToString().c_str());
    exit(1);
  }

  TpccPoint point;
  point.shards = shards;
  point.tps = report->tps;
  point.neworder_ms = report->MeanResponseMs(tpcc::TxnType::kNewOrder);
  Histogram all;
  for (int i = 0; i < tpcc::kNumTxnTypes; i++) {
    all.Merge(report->response_us[i]);
  }
  point.p50_us = all.P50();
  point.p99_us = all.P99();
  point.p999_us = all.P999();
  point.transactions = report->transactions;
  point.digest = DigestTpcc(db->get());
  return point;
}

JsonObject MicroJson(const MicroRun& r) {
  JsonObject o;
  o.Set("elapsed_us", static_cast<uint64_t>(r.elapsed_us))
      .Set("pages", r.pages_done)
      .Set("kpages_per_s", r.KPagesPerSec())
      .Set("contents_ok", r.contents_ok ? 1 : 0);
  return o;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const FlashGeometry geo = PerShardGeometry(flags);
  printf("Sharded multi-device scale-out\n");
  printf("per-shard device: %s\n\n", geo.ToString().c_str());

  const std::vector<uint64_t> shard_counts = {1, 2, 4, 8};
  std::vector<ShardPoint> micro;
  for (uint64_t n : shard_counts) {
    printf("running micro suite at %llu shard(s)...\n",
           static_cast<unsigned long long>(n));
    micro.push_back(RunMicroAt(flags, geo, n));
  }

  printf("\n%-7s | %15s %15s %15s %12s %10s\n", "shards",
         "multi-get kp/s", "scan kp/s", "churn kp/s", "copybacks", "bytes ==");
  PrintRule(86);
  bool micro_ok = true;
  for (const ShardPoint& p : micro) {
    const bool ok = p.multiget.contents_ok && p.scan.contents_ok &&
                    p.digest_ok && p.digest == micro[0].digest;
    micro_ok = micro_ok && ok;
    printf("%-7llu | %15.1f %15.1f %15.1f %12llu %10s\n",
           static_cast<unsigned long long>(p.shards),
           p.multiget.KPagesPerSec(), p.scan.KPagesPerSec(),
           p.churn.KPagesPerSec(),
           static_cast<unsigned long long>(p.gc_copybacks), ok ? "yes" : "NO");
  }
  auto speedup_at = [&](uint64_t shards, auto field) {
    for (const ShardPoint& p : micro) {
      if (p.shards == shards) {
        const double base = field(micro[0]);
        const double here = field(p);
        return base > 0 ? here / base : 0.0;
      }
    }
    return 0.0;
  };
  const double mg4 =
      speedup_at(4, [](const ShardPoint& p) { return p.multiget.KPagesPerSec(); });
  const double scan4 =
      speedup_at(4, [](const ShardPoint& p) { return p.scan.KPagesPerSec(); });
  const double churn4 =
      speedup_at(4, [](const ShardPoint& p) { return p.churn.KPagesPerSec(); });

  std::vector<TpccPoint> tpcc;
  for (uint64_t n : shard_counts) {
    printf("running sharded-by-warehouse TPC-C at %llu shard(s)...\n",
           static_cast<unsigned long long>(n));
    tpcc.push_back(RunTpccAt(flags, n));
  }
  printf("\n%-7s | %10s %12s %10s %10s %10s %12s %10s\n", "shards", "TPS",
         "NewOrder ms", "p50 us", "p99 us", "p999 us", "transactions",
         "digest ==");
  PrintRule(94);
  bool tpcc_ok = true;
  for (const TpccPoint& p : tpcc) {
    const bool ok = p.digest == tpcc[0].digest;
    tpcc_ok = tpcc_ok && ok;
    printf("%-7llu | %10.1f %12.2f %10.1f %10.1f %10.1f %12llu %10s\n",
           static_cast<unsigned long long>(p.shards), p.tps, p.neworder_ms,
           p.p50_us, p.p99_us, p.p999_us,
           static_cast<unsigned long long>(p.transactions), ok ? "yes" : "NO");
  }
  const double tpcc4 = tpcc[0].tps > 0 ? tpcc[2].tps / tpcc[0].tps : 0.0;

  printf("\n4-shard speedups: multi-get %.2fx, scan %.2fx, GC-churn %.2fx, "
         "TPC-C %.2fx\n", mg4, scan4, churn4, tpcc4);

  JsonObject config;
  config.Set("dies_per_shard", static_cast<uint64_t>(geo.total_dies()))
      .Set("channels", static_cast<uint64_t>(geo.channels))
      .Set("blocks_per_die", static_cast<uint64_t>(geo.blocks_per_die))
      .Set("pages_per_block", static_cast<uint64_t>(geo.pages_per_block))
      .Set("page_size", static_cast<uint64_t>(geo.page_size))
      .Set("populate_pages", flags.GetInt("populate_pages", 16384))
      .Set("batch", flags.GetInt("batch", 128))
      .Set("rounds", flags.GetInt("rounds", 300))
      .Set("warehouses", flags.GetInt("warehouses", 8))
      .Set("txns", flags.GetInt("txns", 3000))
      .Set("seed", flags.GetInt("seed", 42));

  std::vector<JsonObject> micro_json;
  for (const ShardPoint& p : micro) {
    JsonObject o;
    o.Set("shards", p.shards)
        .Set("random_multiget", MicroJson(p.multiget))
        .Set("striped_scan", MicroJson(p.scan))
        .Set("gc_churn", MicroJson(p.churn))
        .Set("gc_copybacks", p.gc_copybacks)
        .Set("gc_erases", p.gc_erases)
        .Set("contents_digest_matches_one_shard",
             p.digest == micro[0].digest ? 1 : 0);
    micro_json.push_back(o);
  }
  std::vector<JsonObject> tpcc_json;
  for (const TpccPoint& p : tpcc) {
    JsonObject o;
    o.Set("shards", p.shards)
        .Set("tps", p.tps)
        .Set("neworder_ms", p.neworder_ms)
        .Set("p50_us", p.p50_us)
        .Set("p99_us", p.p99_us)
        .Set("p999_us", p.p999_us)
        .Set("transactions", p.transactions)
        .Set("digest_matches_one_shard", p.digest == tpcc[0].digest ? 1 : 0);
    tpcc_json.push_back(o);
  }

  JsonObject out;
  out.Set("bench", std::string("sharding"))
      .Set("config", config)
      .SetArray("micro_scaling", micro_json)
      .SetArray("tpcc_scaling", tpcc_json)
      .Set("multiget_speedup_4_shards", mg4)
      .Set("scan_speedup_4_shards", scan4)
      .Set("churn_speedup_4_shards", churn4)
      .Set("tpcc_speedup_4_shards", tpcc4)
      .Set("contents_identical", micro_ok && tpcc_ok ? 1 : 0);

  const std::string path = flags.GetString("out", "BENCH_sharding.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());

  // Acceptance gates (ISSUE 5): at 4 shards, random multi-get and striped
  // scan must be >= 2.5x the 1-shard simulated throughput, sharded-by-
  // warehouse TPC-C must scale >= 2x, and every run's contents must verify
  // identical to the 1-shard run.
  bool ok = mg4 >= 2.5 && scan4 >= 2.5 && tpcc4 >= 2.0 && micro_ok &&
            tpcc_ok;

  // Tail-latency gates (ISSUE 9): scale-out must shrink the foreground tail,
  // not merely the mean — each warehouse's I/O lands on its own device, so
  // die queueing (the tail's cause) divides with the shard count. Every
  // multi-shard configuration must beat the 1-shard p99 and p999, and 4
  // shards must cut the p99 to at most 60% of 1-shard.
  for (size_t i = 1; i < tpcc.size(); i++) {
    if (tpcc[i].p99_us > tpcc[0].p99_us || tpcc[i].p999_us > tpcc[0].p999_us) {
      fprintf(stderr,
              "TAIL GATE FAILED: %llu shards p99/p999 %.1f/%.1f us worse "
              "than 1 shard %.1f/%.1f us\n",
              static_cast<unsigned long long>(tpcc[i].shards), tpcc[i].p99_us,
              tpcc[i].p999_us, tpcc[0].p99_us, tpcc[0].p999_us);
      ok = false;
    }
  }
  if (tpcc[2].p99_us > 0.60 * tpcc[0].p99_us) {
    fprintf(stderr, "TAIL GATE FAILED: 4-shard p99 %.1f us > 60%% of "
            "1-shard %.1f us\n", tpcc[2].p99_us, tpcc[0].p99_us);
    ok = false;
  }
  if (!ok) fprintf(stderr, "ACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
