// Read-path fault tolerance under TPC-C: TPS and tail latency at escalating
// transient read-fault rates, with the read-disturb scrub pipeline active.
//
// Each point loads an identical database fault-free, then arms the fault
// model for the measured run:
//   * transient read failures at the point's rate (per-die deterministic
//     streams, so the injected schedule does not depend on interleaving);
//   * the read-disturb model (every block crossing `disturb_limit` host
//     reads starts failing transiently until the mapper's scrub-and-relocate
//     rewrites it), so scrub relocation runs concurrently with the workload.
//
// Reliability is absorbed in layers: the mapper retries reads with backoff
// and scrubs disturbed blocks between attempts; anything that still escapes
// aborts the transaction, which the driver re-runs (abort-and-retry). The
// run uses private per-terminal streams and fixed per-terminal quotas, so
// every point commits the identical logical work — verified by an
// interleaving-invariant digest against the fault-free run. That is the
// "zero lost committed transactions" acceptance gate, alongside zero
// given-up transactions and a bounded NewOrder p99 degradation.
//
// Flags: warehouses=4 txns=3000 warmup=1000 items=10000 dies=8 frames=1024
//        disturb_limit=400 p99_gate=3.0 seed=42
//        out=BENCH_fault_tolerance.json
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "noftl/region_manager.h"
#include "tpcc/driver.h"
#include "tpcc/tpcc_db.h"

namespace noftl::bench {
namespace {

/// Interleaving-invariant logical digest (same recipe as bench_sharding):
/// counters and counts only, no timestamps.
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

struct FaultPoint {
  double rate = 0;
  double tps = 0;
  double neworder_mean_ms = 0;
  double neworder_p99_ms = 0;
  uint64_t transactions = 0;
  uint64_t txn_retries = 0;
  uint64_t txn_giveups = 0;
  // Device-observed faults.
  uint64_t faults_injected = 0;  ///< transient read failures drawn
  // Mapper reliability machinery, summed over regions.
  uint64_t read_retries = 0;
  uint64_t read_retries_exhausted = 0;
  uint64_t scrub_blocks = 0;  ///< disturbed/failing blocks relocated
  uint64_t reads_lost = 0;    ///< unrecoverable reads (must stay 0)
  TpccDigest digest;
};

FaultPoint RunAt(const Flags& flags, double rate) {
  const auto warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", 4));
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

  const auto dies = static_cast<uint32_t>(flags.GetInt("dies", 8));
  db::DatabaseOptions dbo;
  dbo.geometry.channels = dies;
  dbo.geometry.dies_per_channel = 1;
  dbo.geometry.pages_per_block = 64;
  dbo.geometry.page_size = 4096;
  dbo.geometry.blocks_per_die = tpcc::SuggestBlocksPerDie(
      scale, dbo.geometry.page_size, expected_new_orders, dies,
      dbo.geometry.pages_per_block, flags.GetDouble("utilization", 0.80));
  dbo.buffer.frame_count = static_cast<uint32_t>(flags.GetInt("frames", 1024));
  dbo.buffer.flush_batch = 16;
  dbo.buffer.flush_high_water = 0.20;

  tpcc::TpccDbOptions options;
  options.db = dbo;
  options.scale = scale;
  options.placement = tpcc::TraditionalPlacement(dies);
  options.seed = flags.GetInt("seed", 42);
  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) {
    fprintf(stderr, "TPC-C load failed: %s\n", db.status().ToString().c_str());
    exit(1);
  }

  // Arm the fault model AFTER the (fault-free) load: transient read failures
  // at the sweep rate plus the read-disturb wearout model, both drawn from
  // per-die deterministic streams.
  flash::FaultOptions faults;
  faults.read_transient_rate = rate;
  faults.read_disturb_limit = flags.GetInt("disturb_limit", 400);
  faults.read_disturb_rate = 1.0;
  faults.seed = flags.GetInt("seed", 42) * 0x9e3779b9ull + 1;
  (*db)->database()->ForEachDevice(
      [&](flash::FlashDevice* dev) { dev->SetFaults(faults); });

  tpcc::DriverOptions driver_options;
  driver_options.terminals = warehouses;
  driver_options.max_transactions = txns;
  driver_options.warmup_transactions = warmup;
  driver_options.seed = flags.GetInt("seed", 42) + 1;
  driver_options.batched_io = true;
  driver_options.txn_retry_limit =
      static_cast<uint32_t>(flags.GetInt("txn_retry_limit", 5));
  tpcc::TpccDriver driver(db->get(), driver_options);
  auto report = driver.Run();
  if (!report.ok()) {
    fprintf(stderr, "TPC-C run at rate %g failed: %s\n", rate,
            report.status().ToString().c_str());
    exit(1);
  }

  FaultPoint p;
  p.rate = rate;
  p.tps = report->tps;
  const auto& no_hist =
      report->response_us[static_cast<int>(tpcc::TxnType::kNewOrder)];
  p.neworder_mean_ms = no_hist.Mean() / 1000.0;
  p.neworder_p99_ms = no_hist.Percentile(99.0) / 1000.0;
  p.transactions = report->transactions;
  p.txn_retries = report->txn_retries;
  p.txn_giveups = report->txn_giveups;
  (*db)->database()->ForEachDevice([&](flash::FlashDevice* dev) {
    p.faults_injected += dev->read_failures_transient();
  });
  for (noftl::region::Region* r : (*db)->database()->regions()->regions()) {
    const ftl::MapperStats& ms = r->stats();
    p.read_retries += ms.read_retries;
    p.read_retries_exhausted += ms.read_retries_exhausted;
    p.scrub_blocks += ms.read_scrub_blocks;
    p.reads_lost += ms.reads_lost;
  }
  p.digest = DigestTpcc(db->get());
  return p;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  printf("Read-path fault tolerance under TPC-C\n\n");

  const std::vector<double> rates = {0.0, 1e-4, 1e-3};
  std::vector<FaultPoint> points;
  for (double rate : rates) {
    printf("running TPC-C at transient read-fault rate %g...\n", rate);
    points.push_back(RunAt(flags, rate));
  }

  printf("\n%-10s | %9s %9s %9s %9s %8s %8s %9s %7s %7s\n", "fault rate",
         "TPS", "NO ms", "NO p99", "faults", "retries", "scrubs", "txn rtry",
         "giveup", "dig ==");
  PrintRule(104);
  bool digests_ok = true;
  bool no_giveups = true;
  bool no_lost = true;
  for (const FaultPoint& p : points) {
    const bool dig = p.digest == points[0].digest;
    digests_ok = digests_ok && dig;
    no_giveups = no_giveups && p.txn_giveups == 0;
    no_lost = no_lost && p.reads_lost == 0 && p.read_retries_exhausted == 0;
    printf("%-10g | %9.1f %9.2f %9.2f %9llu %8llu %8llu %9llu %7llu %7s\n",
           p.rate, p.tps, p.neworder_mean_ms, p.neworder_p99_ms,
           static_cast<unsigned long long>(p.faults_injected),
           static_cast<unsigned long long>(p.read_retries),
           static_cast<unsigned long long>(p.scrub_blocks),
           static_cast<unsigned long long>(p.txn_retries),
           static_cast<unsigned long long>(p.txn_giveups), dig ? "yes" : "NO");
  }

  const FaultPoint& base = points[0];
  const FaultPoint& worst = points.back();
  const double p99_ratio =
      base.neworder_p99_ms > 0 ? worst.neworder_p99_ms / base.neworder_p99_ms
                               : 0.0;
  const double p99_gate = flags.GetDouble("p99_gate", 3.0);
  printf("\nNewOrder p99 at rate %g: %.2f ms (%.2fx the fault-free %.2f ms; "
         "gate %.1fx)\n",
         worst.rate, worst.neworder_p99_ms, p99_ratio, base.neworder_p99_ms,
         p99_gate);

  JsonObject config;
  config.Set("warehouses", flags.GetInt("warehouses", 4))
      .Set("txns", flags.GetInt("txns", 3000))
      .Set("warmup", flags.GetInt("warmup", 1000))
      .Set("dies", flags.GetInt("dies", 8))
      .Set("disturb_limit", flags.GetInt("disturb_limit", 400))
      .Set("txn_retry_limit", flags.GetInt("txn_retry_limit", 5))
      .Set("seed", flags.GetInt("seed", 42));

  std::vector<JsonObject> points_json;
  for (const FaultPoint& p : points) {
    JsonObject o;
    o.Set("read_transient_rate", p.rate)
        .Set("tps", p.tps)
        .Set("neworder_mean_ms", p.neworder_mean_ms)
        .Set("neworder_p99_ms", p.neworder_p99_ms)
        .Set("transactions", p.transactions)
        .Set("txn_retries", p.txn_retries)
        .Set("txn_giveups", p.txn_giveups)
        .Set("faults_injected", p.faults_injected)
        .Set("mapper_read_retries", p.read_retries)
        .Set("mapper_retries_exhausted", p.read_retries_exhausted)
        .Set("scrub_blocks_relocated", p.scrub_blocks)
        .Set("reads_lost", p.reads_lost)
        .Set("digest_matches_fault_free", p.digest == base.digest ? 1 : 0);
    points_json.push_back(o);
  }

  JsonObject out;
  out.Set("bench", std::string("fault_tolerance"))
      .Set("config", config)
      .SetArray("fault_sweep", points_json)
      .Set("neworder_p99_degradation", p99_ratio)
      .Set("p99_gate", p99_gate)
      .Set("zero_lost_committed_transactions", digests_ok ? 1 : 0)
      .Set("zero_giveups", no_giveups ? 1 : 0);

  const std::string path =
      flags.GetString("out", "BENCH_fault_tolerance.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());

  // Acceptance gates (ISSUE 6): every fault rate commits the identical
  // logical work as the fault-free run (zero lost committed transactions),
  // no transaction exhausts its retry budget, nothing is unrecoverable, and
  // the NewOrder p99 under the heaviest fault rate stays within the gate.
  const bool ok =
      digests_ok && no_giveups && no_lost && p99_ratio <= p99_gate;
  if (!ok) fprintf(stderr, "ACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
