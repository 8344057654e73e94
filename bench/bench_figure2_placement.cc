// Figure 2 reproduction: "Multi-region data placement configuration for
// TPC-C".
//
// The paper's DBA derived 6 regions and distributed 64 dies (2/11/10/29/6/6)
// "based on sizes of objects and their I/O rate". This harness performs the
// same derivation for *this* engine: it estimates every object's footprint
// from the TPC-C scaling rules, combines it with the per-object page reads
// and writes per transaction measured on a traditional-placement run,
// apportions the dies by modelled service demand, and prints the result next
// to the paper's table.
//
// With profile=1 it instead re-measures that rate table: it loads TPC-C
// under the traditional placement, runs warmup + txns transactions and
// prints every object's measured reads and writes per transaction and its
// final page count, next to the committed table, and every index's entries
// per page (its leaf fill; a full 4 KiB leaf holds 169 entries). Run it at
// the Figure 3 configuration the table was measured on:
//   bench_figure2_placement profile=1 warmup=50000 txns=150000
//
// Flags: warehouses=1 txns=30000 warmup=txns dies=64 profile=0
#include <cstdio>

#include "bench/bench_util.h"
#include "tpcc/profile.h"

namespace noftl::bench {
namespace {

int Profile(const TpccBenchConfig& config) {
  tpcc::TpccDbOptions options;
  options.db = config.DbOptions();
  options.scale = config.Scale();
  options.placement = tpcc::TraditionalPlacement(config.dies);
  options.seed = config.seed;
  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) {
    fprintf(stderr, "load failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  // Count the run's I/O only, not the loader's.
  (*db)->database()->io_stats()->Reset();
  tpcc::DriverOptions driver_options;
  driver_options.terminals = config.terminals;
  driver_options.warmup_transactions = config.warmup;
  driver_options.max_transactions = config.transactions;
  driver_options.seed = config.seed + 1;
  auto report = tpcc::TpccDriver(db->get(), driver_options).Run();
  if (!report.ok()) {
    fprintf(stderr, "run failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const double txns = static_cast<double>(config.warmup + config.transactions);
  const auto profile = tpcc::CollectProfile(db->get());
  const auto table = tpcc::EstimateFootprints(
      config.Scale(), config.DbOptions().geometry.page_size,
      config.ExpectedNewOrders());
  printf("measured per-transaction page I/O, traditional placement, "
         "%.0f transactions:\n", txns);
  printf("  %-14s %10s %10s | %10s %10s | %10s %10s %10s\n", "object",
         "reads/txn", "writes/txn", "table rd", "table wr", "pages",
         "entries/pg", "est pages");
  for (const auto& p : profile) {
    for (const auto& f : table) {
      if (f.object != p.object) continue;
      char fill[16] = "-";
      if (p.entries > 0 && p.pages > 0) {
        snprintf(fill, sizeof(fill), "%.1f",
                 static_cast<double>(p.entries) / static_cast<double>(p.pages));
      }
      printf("  %-14s %10.4f %10.4f | %10.4f %10.4f | %10llu %10s %10llu\n",
             p.object.c_str(), static_cast<double>(p.reads) / txns,
             static_cast<double>(p.writes) / txns, f.reads_per_txn,
             f.writes_per_txn, static_cast<unsigned long long>(p.pages), fill,
             static_cast<unsigned long long>(f.pages));
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  TpccBenchConfig config = TpccBenchConfig::FromFlags(flags);
  if (flags.GetInt("profile", 0) != 0) return Profile(config);
  const auto db_options = config.DbOptions();
  const uint32_t page_size = db_options.geometry.page_size;
  const uint64_t growth = config.ExpectedNewOrders();

  printf("Figure 2 — multi-region data placement configuration for TPC-C\n");
  printf("scale: %u warehouses; device: %s\n\n", config.warehouses,
         db_options.geometry.ToString().c_str());

  // Per-object footprints and measured I/O rates.
  auto footprints =
      tpcc::EstimateFootprints(config.Scale(), page_size, growth);
  printf("per-object estimates (pages of %u B, growth for %llu NewOrders):\n",
         page_size, static_cast<unsigned long long>(growth));
  printf("  %-14s %10s %10s %10s\n", "object", "pages", "reads/txn",
         "writes/txn");
  for (const auto& f : footprints) {
    printf("  %-14s %10llu %10.3f %10.3f\n", f.object.c_str(),
           static_cast<unsigned long long>(f.pages), f.reads_per_txn,
           f.writes_per_txn);
  }

  tpcc::PlacementConfig paper = tpcc::PaperFigure2Placement(config.dies);
  tpcc::PlacementConfig derived = tpcc::DeriveFigure2Placement(
      config.Scale(), page_size, growth, config.dies,
      tpcc::UsablePagesPerDie(db_options.geometry.blocks_per_die,
                              db_options.geometry.pages_per_block));

  printf("\n%-12s | %-42s | %10s | %10s\n", "region", "objects",
         "paper dies", "ours dies");
  PrintRule(88);
  for (size_t i = 0; i < paper.regions.size(); i++) {
    std::string objects;
    for (const auto& o : paper.regions[i].objects) {
      if (!objects.empty()) objects += "; ";
      objects += o;
    }
    if (objects.size() > 42) objects = objects.substr(0, 39) + "...";
    printf("%-12s | %-42s | %10u | %10u\n",
           paper.regions[i].region_name.c_str(), objects.c_str(),
           paper.regions[i].dies, derived.regions[i].dies);
  }
  PrintRule(88);
  printf("%-12s | %-42s | %10u | %10u\n", "total", "", paper.TotalDies(),
         derived.TotalDies());

  printf("\nnotes:\n");
  printf("  * the paper's counts (2/11/10/29/6/6) reflect Shore-MT object\n");
  printf("    sizes and rates; ours reflect this engine's row formats. The\n");
  printf("    grouping (which objects share a region) is identical.\n");
  printf("  * after each region holds its footprint, every spare die goes\n"
         "    to the region with the most modelled die service time per\n"
         "    die (reads, writes and the GC work the writes cause).\n");
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
