// Real-thread scaling: concurrent workers over the sharded flash stack.
//
// The deterministic driver interleaves terminals by simulated event order on
// ONE OS thread; the simulated TPS it reports measures device parallelism,
// not host parallelism. This bench measures the other axis: the same
// sharded-by-warehouse TPC-C database (4 shards, kByKey placement, one
// terminal per warehouse) driven by 1/2/4/8 real worker threads, reporting
// real wall-clock TPS and NewOrder p50/p99 response times.
//
// Two properties are asserted, not just reported:
//   1. every threaded run commits work digest-equal to the worker_threads=0
//      deterministic run (per-terminal streams + fixed quotas make the
//      logical workload interleaving-invariant; the per-warehouse locks and
//      layer latches must not change WHAT commits, only WHEN);
//   2. wall-clock TPS at 4 workers >= 2x the 1-worker run — the scaling
//      gate for the thread-safety work (sharded latches, lock-free buffer
//      hits, I/O issued with latches released).
//
// Flags: warehouses=8 txns=12000 warmup=2000 items=10000 customers=600
//        orders=300 new_orders=90 dies_per_shard=8 frames=1024 seed=42
//        shards=4 out=BENCH_threads.json
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "shard/sharded_space.h"
#include "tpcc/driver.h"
#include "tpcc/schema.h"
#include "tpcc/tpcc_db.h"

namespace noftl::bench {
namespace {

/// Interleaving-invariant logical digest (same fields as bench_sharding's
/// cross-shard-count check): counters and counts only, no timestamps.
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

struct ThreadPoint {
  uint32_t workers = 0;  ///< 0 = deterministic event-ordered baseline
  uint64_t transactions = 0;
  double sim_tps = 0;
  double wall_tps = 0;
  uint64_t wall_elapsed_us = 0;
  double neworder_p50_us = 0;
  double neworder_p99_us = 0;
  TpccDigest digest;
};

ThreadPoint RunAt(const Flags& flags, uint32_t workers) {
  const auto warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", 8));
  tpcc::TpccScale scale;
  scale.warehouses = warehouses;
  scale.items = static_cast<uint32_t>(flags.GetInt("items", 10000));
  scale.customers_per_district =
      static_cast<uint32_t>(flags.GetInt("customers", 600));
  scale.initial_orders_per_district =
      static_cast<uint32_t>(flags.GetInt("orders", 300));
  scale.initial_new_orders_per_district =
      static_cast<uint32_t>(flags.GetInt("new_orders", 90));

  const uint64_t txns = flags.GetInt("txns", 8000);
  const uint64_t warmup = flags.GetInt("warmup", 2000);
  const uint64_t expected_new_orders = (txns + warmup) * 45 / 100;

  // Fixed 4-shard sharded-by-warehouse device (the PR-5 scale-out shape);
  // only the worker count varies across runs.
  const auto shards = static_cast<uint32_t>(flags.GetInt("shards", 4));
  const auto dies_per_shard =
      static_cast<uint32_t>(flags.GetInt("dies_per_shard", 8));
  db::DatabaseOptions dbo;
  dbo.geometry.channels = dies_per_shard;
  dbo.geometry.dies_per_channel = 1;
  dbo.geometry.planes_per_die = 1;
  dbo.geometry.pages_per_block = 64;
  dbo.geometry.page_size = 4096;
  dbo.geometry.blocks_per_die = tpcc::SuggestBlocksPerDie(
      scale, dbo.geometry.page_size, expected_new_orders, dies_per_shard,
      dbo.geometry.pages_per_block, flags.GetDouble("utilization", 0.80));
  dbo.buffer.frame_count = static_cast<uint32_t>(flags.GetInt("frames", 1024));
  dbo.buffer.flush_batch = 16;
  dbo.buffer.flush_high_water = 0.20;
  dbo.sharding.shard_count = shards;
  dbo.sharding.placement = shard::ShardPlacement::kByKey;

  tpcc::TpccDbOptions options;
  options.db = dbo;
  options.scale = scale;
  options.placement = tpcc::TraditionalPlacement(dies_per_shard);
  options.seed = flags.GetInt("seed", 42);
  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) {
    fprintf(stderr, "TPC-C load (%u workers) failed: %s\n", workers,
            db.status().ToString().c_str());
    exit(1);
  }

  tpcc::DriverOptions driver_options;
  driver_options.terminals = warehouses;  // one terminal per warehouse
  driver_options.max_transactions = txns;
  driver_options.warmup_transactions = warmup;
  driver_options.seed = flags.GetInt("seed", 42) + 1;
  driver_options.batched_io = true;
  driver_options.worker_threads = workers;
  // Closed-loop device-latency pacing: each worker blocks for its
  // transaction's simulated time x pace, so wall-clock throughput measures
  // how well workers overlap I/O waits (the axis real threads buy) rather
  // than raw simulator CPU speed.
  driver_options.wall_pace = flags.GetDouble("pace", 0.1);
  tpcc::TpccDriver driver(db->get(), driver_options);
  auto report = driver.Run();
  if (!report.ok()) {
    fprintf(stderr, "TPC-C run (%u workers) failed: %s\n", workers,
            report.status().ToString().c_str());
    exit(1);
  }

  ThreadPoint point;
  point.workers = workers;
  point.transactions = report->transactions;
  point.sim_tps = report->tps;
  point.wall_tps = report->wall_tps;
  point.wall_elapsed_us = report->wall_elapsed_us;
  const auto& no_hist =
      report->response_us[static_cast<int>(tpcc::TxnType::kNewOrder)];
  point.neworder_p50_us = no_hist.Percentile(50.0);
  point.neworder_p99_us = no_hist.Percentile(99.0);
  point.digest = DigestTpcc(db->get());
  return point;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  printf("Real-thread scaling over the sharded flash stack\n");
  printf("(4 shards by warehouse, one terminal per warehouse)\n\n");

  // workers=0 is the deterministic baseline every threaded run must match.
  const std::vector<uint32_t> worker_counts = {0, 1, 2, 4, 8};
  std::vector<ThreadPoint> points;
  for (uint32_t w : worker_counts) {
    printf("running with %u worker thread(s)%s...\n", w,
           w == 0 ? " (deterministic baseline)" : "");
    points.push_back(RunAt(flags, w));
  }

  printf("\n%-8s | %12s %12s %14s %14s %10s\n", "workers", "wall TPS",
         "sim TPS", "NewOrder p50", "NewOrder p99", "digest ==");
  PrintRule(80);
  bool digest_ok = true;
  for (const ThreadPoint& p : points) {
    const bool ok = p.digest == points[0].digest;
    digest_ok = digest_ok && ok;
    printf("%-8u | %12.1f %12.1f %12.1fus %12.1fus %10s\n", p.workers,
           p.wall_tps, p.sim_tps, p.neworder_p50_us, p.neworder_p99_us,
           ok ? "yes" : "NO");
  }

  auto wall_at = [&](uint32_t workers) {
    for (const ThreadPoint& p : points) {
      if (p.workers == workers) return p.wall_tps;
    }
    return 0.0;
  };
  const double base = wall_at(1);
  const double speedup2 = base > 0 ? wall_at(2) / base : 0.0;
  const double speedup4 = base > 0 ? wall_at(4) / base : 0.0;
  const double speedup8 = base > 0 ? wall_at(8) / base : 0.0;
  printf("\nwall-clock speedup vs 1 worker: 2w %.2fx, 4w %.2fx, 8w %.2fx\n",
         speedup2, speedup4, speedup8);

  JsonObject config;
  config.Set("shards", flags.GetInt("shards", 4))
      .Set("dies_per_shard", flags.GetInt("dies_per_shard", 8))
      .Set("warehouses", flags.GetInt("warehouses", 8))
      .Set("txns", flags.GetInt("txns", 12000))
      .Set("warmup", flags.GetInt("warmup", 2000))
      .Set("frames", flags.GetInt("frames", 1024))
      .Set("seed", flags.GetInt("seed", 42));

  std::vector<JsonObject> runs;
  for (const ThreadPoint& p : points) {
    JsonObject o;
    o.Set("workers", static_cast<uint64_t>(p.workers))
        .Set("transactions", p.transactions)
        .Set("wall_tps", p.wall_tps)
        .Set("wall_elapsed_us", p.wall_elapsed_us)
        .Set("sim_tps", p.sim_tps)
        .Set("neworder_p50_us", p.neworder_p50_us)
        .Set("neworder_p99_us", p.neworder_p99_us)
        .Set("digest_matches_deterministic",
             p.digest == points[0].digest ? 1 : 0);
    runs.push_back(o);
  }

  JsonObject out;
  out.Set("bench", std::string("threads"))
      .Set("config", config)
      .SetArray("worker_scaling", runs)
      .Set("wall_speedup_2_workers", speedup2)
      .Set("wall_speedup_4_workers", speedup4)
      .Set("wall_speedup_8_workers", speedup8)
      .Set("digest_identical", digest_ok ? 1 : 0);

  const std::string path = flags.GetString("out", "BENCH_threads.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());

  // Acceptance gates (ISSUE 7): 4 workers must be >= 2x the 1-worker
  // wall-clock TPS on the 4-shard device, with every threaded run
  // digest-equal to the deterministic baseline.
  const bool ok = speedup4 >= 2.0 && digest_ok;
  if (!ok) fprintf(stderr, "ACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
