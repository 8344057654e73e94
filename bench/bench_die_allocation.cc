// Ablation: how spare dies are apportioned across the Figure 2 regions.
//
// Same 6-way grouping, two allocation rules:
//   * service-demand — each region holds its footprint, then every spare die
//                      goes to the region with the most modelled die service
//                      time per die (our default, DeriveFigure2Placement);
//   * paper-fixed    — the literal 2/11/10/29/6/6 from Figure 2.
// For each rule it prints the run's TPS, read latency, GC copybacks and
// write amplification, then every region's die busy seconds per die over
// the driver run: the quantity the service-demand rule tries to level.
//
// Compare them at the paper's run length, where the order regions have
// grown and GC is in its steady state:
//   bench_die_allocation warmup=50000 txns=150000
//
// Flags: same as bench_figure3_tpcc.
#include <cstdio>

#include "bench/bench_util.h"

namespace noftl::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  TpccBenchConfig config = TpccBenchConfig::FromFlags(flags);
  const auto db_options = config.DbOptions();
  const uint64_t usable = tpcc::UsablePagesPerDie(
      db_options.geometry.blocks_per_die, db_options.geometry.pages_per_block);

  printf("Die-allocation ablation — Figure 2 grouping, two sizing rules\n");
  printf("device: %s\n\n", db_options.geometry.ToString().c_str());

  struct Variant {
    const char* name;
    tpcc::PlacementConfig placement;
    std::vector<SimTime> busy;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"service-demand",
       tpcc::DeriveFigure2Placement(config.Scale(),
                                    db_options.geometry.page_size,
                                    config.ExpectedNewOrders(), config.dies,
                                    usable),
       {}});
  variants.push_back(
      {"paper-fixed", tpcc::PaperFigure2Placement(config.dies), {}});

  printf("%-14s | %-22s | %9s %10s %12s %7s\n", "rule", "dies per region",
         "TPS", "read us", "copybacks", "WA");
  PrintRule(86);
  for (auto& v : variants) {
    std::string dies;
    for (const auto& r : v.placement.regions) {
      if (!dies.empty()) dies += "/";
      dies += std::to_string(r.dies);
    }
    auto report =
        RunTpcc(config, v.placement, db::Backend::kNoFtl, nullptr, &v.busy);
    if (!report.ok()) {
      printf("%-14s | %-22s | failed: %s\n", v.name, dies.c_str(),
             report.status().ToString().c_str());
      continue;
    }
    printf("%-14s | %-22s | %9.2f %10.2f %12llu %7.2f\n", v.name,
           dies.c_str(), report->tps, report->read_4k_us,
           static_cast<unsigned long long>(report->gc_copybacks),
           report->write_amplification);
  }
  PrintRule(86);

  printf("\ndie busy seconds per die over the run, by region:\n");
  printf("%-14s", "rule");
  for (const auto& r : variants[0].placement.regions) {
    printf(" %10s", r.region_name.c_str());
  }
  printf("\n");
  for (const auto& v : variants) {
    if (v.busy.size() != v.placement.regions.size()) continue;
    printf("%-14s", v.name);
    for (size_t i = 0; i < v.busy.size(); i++) {
      printf(" %10.1f", static_cast<double>(v.busy[i]) / 1e6 /
                            v.placement.regions[i].dies);
    }
    printf("\n");
  }

  printf("\nshape: the service-demand rule levels busy time per die across\n"
         "the I/O-heavy regions (rg_cust, rg_stock, rg_item, rg_wh) and\n"
         "leaves the large but I/O-light rg_order at its capacity minimum.\n"
         "The paper's fixed counts encode Shore-MT's sizes: on this engine\n"
         "rg_order's share cannot hold ORDERLINE's growth, so that run stops\n"
         "with NoSpace.\n");
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
