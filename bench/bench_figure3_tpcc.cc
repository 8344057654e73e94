// Figure 3 reproduction: "Performance comparison of traditional and
// multi-region data placement configuration" (TPC-C).
//
// Runs the identical TPC-C workload on the identical simulated 64-die device
// under (a) traditional placement — one region spanning all dies — and
// (b) the multi-region Figure 2 placement, and prints every row of the
// paper's table: TPS, 4 KB read/write response times, per-transaction
// response times, transaction and host I/O counts, GC COPYBACKs and ERASEs.
//
// Absolute values differ from the paper (their substrate was a real
// Shore-MT on prototype hardware); the claim under test is the *shape*:
// regions win throughput, lower latency, and cut GC copybacks/erases.
//
// Flags: warehouses=1 txns=30000 warmup=30000 terminals=8 dies=64
//        channels=16 frames=1024 utilization=0.80
//        placement=derived|paper|profiled
#include <cstdio>

#include "bench/bench_util.h"
#include "tpcc/profile.h"

namespace noftl::bench {
namespace {

using tpcc::DriverReport;
using tpcc::TxnType;

struct PaperRow {
  const char* name;
  double traditional;
  double regions;
};

// The values of Figure 3, verbatim.
const PaperRow kPaperRows[] = {
    {"TPS", 595.42, 720.43},
    {"READ 4KB (us)", 531.00, 318.63},
    {"WRITE 4KB (us)", 904.00, 564.83},
    {"NewOrder TRX (ms)", 61.43, 58.45},
    {"Payment TRX (ms)", 8.88, 6.99},
    {"StockLevel TRX (ms)", 437.30, 293.97},
    {"Transactions", 359725, 433192},
    {"Host READ I/Os (4KB)", 19017255, 23329310},
    {"Host WRITE I/Os (4KB)", 2740236, 3259162},
    {"GC COPYBACKs", 4326612, 3496984},
    {"GC ERASEs", 110410, 105564},
};

double MeasuredValue(const DriverReport& r, int row) {
  switch (row) {
    case 0: return r.tps;
    case 1: return r.read_4k_us;
    case 2: return r.write_4k_us;
    case 3: return r.MeanResponseMs(TxnType::kNewOrder);
    case 4: return r.MeanResponseMs(TxnType::kPayment);
    case 5: return r.MeanResponseMs(TxnType::kStockLevel);
    case 6: return static_cast<double>(r.transactions);
    case 7: return static_cast<double>(r.host_read_ios);
    case 8: return static_cast<double>(r.host_write_ios);
    case 9: return static_cast<double>(r.gc_copybacks);
    case 10: return static_cast<double>(r.gc_erases);
  }
  return 0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  TpccBenchConfig config = TpccBenchConfig::FromFlags(flags);
  const std::string placement_kind = flags.GetString("placement", "derived");

  const auto db_options = config.DbOptions();
  printf("Figure 3 — TPC-C: traditional vs. multi-region placement\n");
  printf("device: %s\n", db_options.geometry.ToString().c_str());
  printf("workload: %u warehouses, %llu transactions, %u terminals, "
         "%u buffer frames\n\n",
         config.warehouses,
         static_cast<unsigned long long>(config.transactions),
         config.terminals, config.frames);

  const uint64_t usable_per_die = tpcc::UsablePagesPerDie(
      db_options.geometry.blocks_per_die, db_options.geometry.pages_per_block);
  tpcc::PlacementConfig traditional =
      tpcc::TraditionalPlacement(config.dies);
  tpcc::PlacementConfig regions;
  if (placement_kind == "paper") {
    regions = tpcc::PaperFigure2Placement(config.dies);
  } else if (placement_kind == "profiled") {
    // The DBA workflow the paper sketches: profile a traditional run, then
    // size the regions from the measured per-object statistics. Footprints
    // are projected to the full run length from the observed growth.
    printf("profiling run (traditional placement)...\n");
    const uint64_t profile_txns =
        std::max<uint64_t>(2000, config.transactions / 4);
    tpcc::TpccDbOptions profiling_options;
    profiling_options.db = config.DbOptions();
    profiling_options.scale = config.Scale();
    profiling_options.placement = traditional;
    profiling_options.seed = config.seed;
    auto profiled_db = tpcc::TpccDb::CreateAndLoad(profiling_options);
    if (!profiled_db.ok()) {
      fprintf(stderr, "profiling load failed: %s\n",
              profiled_db.status().ToString().c_str());
      return 1;
    }
    const auto before = tpcc::CollectProfile(profiled_db->get());
    tpcc::DriverOptions profiling_driver;
    profiling_driver.terminals = config.terminals;
    profiling_driver.max_transactions = profile_txns;
    profiling_driver.seed = config.seed + 1;
    auto profiling_report =
        tpcc::TpccDriver(profiled_db->get(), profiling_driver).Run();
    if (!profiling_report.ok()) {
      fprintf(stderr, "profiling run failed: %s\n",
              profiling_report.status().ToString().c_str());
      return 1;
    }
    auto profile = tpcc::CollectProfile(profiled_db->get());
    const double scale_up =
        static_cast<double>(config.warmup + config.transactions) /
        static_cast<double>(profile_txns);
    for (auto& p : profile) {
      for (const auto& b : before) {
        if (b.object == p.object) {
          const uint64_t grown = p.pages - std::min(p.pages, b.pages);
          p.pages += static_cast<uint64_t>(scale_up * grown);
          break;
        }
      }
    }
    regions = tpcc::DerivePlacementFromProfile(
        tpcc::Figure2Grouping(), "figure2-profiled", profile, config.dies,
        usable_per_die, /*growth_factor=*/1.0);
  } else {
    regions = tpcc::DeriveFigure2Placement(
        config.Scale(), db_options.geometry.page_size,
        config.ExpectedNewOrders(), config.dies, usable_per_die);
  }

  printf("multi-region placement (%s):\n", regions.label.c_str());
  for (const auto& r : regions.regions) {
    printf("  %-10s %2u dies :", r.region_name.c_str(), r.dies);
    for (const auto& o : r.objects) printf(" %s", o.c_str());
    printf("\n");
  }
  printf("\nrunning traditional placement...\n");
  auto trad = RunTpcc(config, traditional);
  if (!trad.ok()) {
    fprintf(stderr, "traditional run failed: %s\n",
            trad.status().ToString().c_str());
    return 1;
  }
  printf("running multi-region placement...\n\n");
  std::unique_ptr<tpcc::TpccDb> multi_db;
  std::vector<SimTime> multi_busy;
  auto multi =
      RunTpcc(config, regions, db::Backend::kNoFtl, &multi_db, &multi_busy);
  if (!multi.ok()) {
    fprintf(stderr, "multi-region run failed: %s\n",
            multi.status().ToString().c_str());
    return 1;
  }

  printf("%-22s | %12s %12s %7s | %12s %12s %7s\n", "", "paper:trad",
         "paper:regio", "ratio", "ours:trad", "ours:regio", "ratio");
  PrintRule(100);
  for (int i = 0; i < 11; i++) {
    const PaperRow& row = kPaperRows[i];
    const double mt = MeasuredValue(*trad, i);
    const double mr = MeasuredValue(*multi, i);
    printf("%-22s | %12.2f %12.2f %6.2fx | %12.2f %12.2f %6.2fx\n", row.name,
           row.traditional, row.regions, row.regions / row.traditional, mt,
           mr, mt != 0 ? mr / mt : 0);
  }
  PrintRule(100);
  printf("\nshape checks (paper -> expected direction):\n");
  struct Check {
    const char* what;
    bool ok;
  } checks[] = {
      {"regions increase TPS", multi->tps > trad->tps},
      {"regions lower READ 4KB latency", multi->read_4k_us < trad->read_4k_us},
      {"regions lower WRITE 4KB latency",
       multi->write_4k_us < trad->write_4k_us},
      {"regions reduce GC COPYBACKs", multi->gc_copybacks < trad->gc_copybacks},
      {"regions reduce GC ERASEs (per txn)",
       static_cast<double>(multi->gc_erases) /
               static_cast<double>(multi->transactions) <
           static_cast<double>(trad->gc_erases) /
               static_cast<double>(trad->transactions)},
      {"regions cut write amplification",
       multi->write_amplification < trad->write_amplification},
  };
  int passed = 0;
  for (const auto& c : checks) {
    printf("  [%s] %s\n", c.ok ? "ok" : "MISS", c.what);
    if (c.ok) passed++;
  }
  printf("%d/6 shape checks hold\n", passed);

  printf("\nextra detail (not in the paper's table):\n");
  printf("  traditional : WA=%.2f, buffer hit=%.3f, wear max/avg=%u/%.1f\n",
         trad->write_amplification, trad->buffer_hit_rate, trad->max_erase,
         trad->avg_erase);
  printf("  regions     : WA=%.2f, buffer hit=%.3f, wear max/avg=%u/%.1f\n",
         multi->write_amplification, multi->buffer_hit_rate, multi->max_erase,
         multi->avg_erase);
  printf("\nper-region detail (multi-region run):\n");
  PrintRegionDetail(multi_db.get(), multi_busy);
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
