// Data-placement configurations for TPC-C over NoFTL regions.
//
// The paper's Figure 2 divides the 19 TPC-C objects (9 tables, 10 indexes)
// plus DBMS metadata into 6 regions "based on sizes of objects and their I/O
// rate (required level of I/O parallelism)" and distributes 64 dies as
// 2/11/10/29/6/6. Object sizes depend on the storage engine, so this module
// offers both:
//   * PaperFigure2Placement() — the literal die counts from the paper;
//   * DeriveFigure2Placement() — the same 6-way object grouping with die
//     counts recomputed from *this* engine's object footprints and measured
//     per-object page reads and writes per transaction (what the paper's
//     DBA did for Shore-MT);
//   * TraditionalPlacement() — everything in one region spanning all dies
//     (the baseline column of Figure 3).
//
// Derived die counts come from ApportionByServiceDemand: every region first
// gets the dies its footprint needs, then each spare die goes to the region
// whose dies are busiest under a model of flash service time — host reads,
// host writes and the greedy-GC work each write causes at the region's
// utilization. The static derivation (EstimateFootprints' rate table) and
// the profiled one (DerivePlacementFromProfile) share that routine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tpcc/scale.h"

namespace noftl::tpcc {

/// One region of a placement and the objects that live in it.
struct PlacementRegionSpec {
  std::string region_name;
  uint32_t dies = 1;
  uint32_t max_channels = 0;  ///< 0 = unlimited
  std::vector<std::string> objects;  ///< table/index names, "DBMS_METADATA"
};

struct PlacementConfig {
  std::string label;
  std::vector<PlacementRegionSpec> regions;

  uint32_t TotalDies() const {
    uint32_t total = 0;
    for (const auto& r : regions) total += r.dies;
    return total;
  }
  /// Region that hosts `object`; empty string if unplaced.
  std::string RegionOf(const std::string& object) const;
};

/// All 19 TPC-C object names plus DBMS_METADATA, in a stable order.
const std::vector<std::string>& AllTpccObjects();

/// Estimated footprint in pages for each object at `scale`, including the
/// growth from `expected_new_orders` NewOrder transactions. `page_size` in
/// bytes. Mirrors the size estimation a DBA would do before CREATE REGION.
///
/// The rates are host page I/Os per transaction of the standard mix,
/// measured with CollectProfile on a traditional-placement run of the
/// Figure 3 configuration (1 warehouse, 1024 buffer frames, 50k warmup +
/// 150k transactions); they do not depend on `scale`. Re-measure them with
/// `bench_figure2_placement profile=1 warmup=50000 txns=150000` whenever
/// access patterns change; ProfileDriftTest guards them.
///
/// Index sizes come from a random-insert fill model (67% full leaves). It
/// overestimates the key-ordered indexes, whose leaves a run of inserts
/// fills (see BTree's split policy): at the end of the Figure 3 run I_IDX
/// holds 599 pages against 894 estimated and OL_IDX about 7.2k against
/// 10.7k, while the random-insert C_NAME_IDX and O_CUST_IDX match it. The
/// model is left as it is on purpose: SuggestBlocksPerDie sizes every
/// benchmark device from these pages.
struct ObjectFootprint {
  std::string object;
  uint64_t pages;         ///< estimated size incl. growth
  double reads_per_txn;   ///< host page reads per transaction (measured)
  double writes_per_txn;  ///< host page writes per transaction (measured)
};
std::vector<ObjectFootprint> EstimateFootprints(const TpccScale& scale,
                                                uint32_t page_size,
                                                uint64_t expected_new_orders);

/// Times the footprint table was actually computed (memoization misses).
/// EstimateFootprints / SuggestBlocksPerDie / DeriveGroupedPlacement use
/// cached tables for parameters they have seen before; test/bench hook.
uint64_t FootprintEstimationCount();

/// An object grouping to derive a placement for (region name + members).
struct PlacementGroup {
  std::string name;
  std::vector<std::string> objects;
};

/// The paper's Figure 2 object grouping (6 groups).
const std::vector<PlacementGroup>& Figure2Grouping();

/// Coarser groupings for the region-count ablation.
std::vector<PlacementGroup> TwoWayGrouping();    ///< write-hot vs. cold
std::vector<PlacementGroup> ThreeWayGrouping();  ///< hot / warm / cold

/// Single region over `total_dies` — the traditional placement baseline.
PlacementConfig TraditionalPlacement(uint32_t total_dies);

/// What one region asks of its dies: its footprint and its host page reads
/// and writes per unit of work. The unit is free (per transaction, or raw
/// counts over one profiled run) as long as every region uses the same one:
/// the apportionment compares regions only with each other.
struct RegionDemand {
  uint64_t pages = 0;
  double reads = 0;
  double writes = 0;
};

/// Modelled die service time, per unit of work, of a region holding
/// `demand` on `dies` dies with `usable_pages_per_die` pages each, with the
/// flash::FlashTiming{} defaults:
///   D(d) = R (read + transfer) + W (program + transfer + G(u)),
/// where u = pages / (d * usable_pages_per_die) and G(u) is the greedy-GC
/// cost per host write: v / (1 - v) copybacks plus one block erase per
/// pages_per_block * (1 - v) reclaimed pages, v being the victim's valid
/// fraction from the uniform-random approximation u = (1 - v) / -ln(v).
/// pages_per_block is the flash::FlashGeometry{} default.
double ModelledServiceDemand(const RegionDemand& demand, uint32_t dies,
                             uint64_t usable_pages_per_die);

/// Dies for `groups` (one RegionDemand each): every region first gets
/// ceil(capacity_margin x pages / usable_pages_per_die) dies, at least one;
/// then the spare dies are water-filled one at a time to the region with
/// the largest ModelledServiceDemand(d) / d, ties to the earlier group. If
/// the capacity minimums exceed `total_dies`, dies follow footprints
/// instead (largest remainder, at least one each).
PlacementConfig ApportionByServiceDemand(
    const std::vector<PlacementGroup>& groups, const std::string& label,
    const std::vector<RegionDemand>& demand, uint32_t total_dies,
    uint64_t usable_pages_per_die, double capacity_margin = 1.10);

/// Dies for any grouping from EstimateFootprints' pages and rate table,
/// through ApportionByServiceDemand (see DeriveFigure2Placement).
PlacementConfig DeriveGroupedPlacement(const std::vector<PlacementGroup>& groups,
                                       const std::string& label,
                                       const TpccScale& scale,
                                       uint32_t page_size,
                                       uint64_t expected_new_orders,
                                       uint32_t total_dies,
                                       uint64_t usable_pages_per_die,
                                       double capacity_margin = 1.10);

/// The paper's exact Figure 2 grouping and die counts (2/11/10/29/6/6),
/// proportionally rescaled when total_dies != 64.
PlacementConfig PaperFigure2Placement(uint32_t total_dies = 64);

/// Figure 2's object grouping with die counts derived from this engine's
/// footprints and measured I/O rates, the same way the paper's DBA sized
/// regions "based on sizes of objects and their I/O rate (required level
/// of I/O parallelism)":
///   1. every region gets enough dies for capacity_margin x its footprint;
///   2. each remaining die goes to the region whose dies carry the most
///      modelled service time per die — reads, writes and the GC work the
///      writes cause, which falls as the region's utilization falls — so
///      the busiest dies of the device get relief first.
/// On the Figure 3 device (1 warehouse, 90k NewOrders, 64 dies of 26
/// blocks) this gives 2/21/10/23/3/5. `usable_pages_per_die` must exclude
/// the per-die GC reserve (see UsablePagesPerDie).
PlacementConfig DeriveFigure2Placement(const TpccScale& scale,
                                       uint32_t page_size,
                                       uint64_t expected_new_orders,
                                       uint32_t total_dies,
                                       uint64_t usable_pages_per_die,
                                       double capacity_margin = 1.10);

/// Pages per die available for data once the mapper's GC reserve is set
/// aside — the capacity figure placement decisions must use.
uint64_t UsablePagesPerDie(uint32_t blocks_per_die, uint32_t pages_per_block);

/// Smallest blocks_per_die such that the whole database (plus growth) fills
/// at most `target_utilization` of the device.
uint32_t SuggestBlocksPerDie(const TpccScale& scale, uint32_t page_size,
                             uint64_t expected_new_orders, uint32_t total_dies,
                             uint32_t pages_per_block,
                             double target_utilization = 0.80,
                             uint32_t min_blocks = 16);

}  // namespace noftl::tpcc
