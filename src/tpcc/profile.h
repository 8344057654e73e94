// Placement from *measured* statistics — closing the loop the paper
// describes: "the DBMS maintains such and other statistics and metadata for
// each particular database object ... it becomes easy to utilize the DBMS
// knowledge."
//
// After any run, CollectProfile() reads the engine's per-object page counts
// and I/O counters; DerivePlacementFromProfile() turns them into a region
// configuration with the same footprint-first / spare-by-service-demand rule
// (ApportionByServiceDemand) used for the analytic derivation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tpcc/placement.h"
#include "tpcc/tpcc_db.h"

namespace noftl::tpcc {

struct ObjectProfile {
  std::string object;
  uint64_t pages = 0;    ///< currently allocated pages
  uint64_t entries = 0;  ///< index entries (0 for a table)
  uint64_t reads = 0;    ///< page reads during the profiled run
  uint64_t writes = 0;   ///< page writes during the profiled run
};

/// Snapshot the per-object profile of a loaded (and ideally already-run)
/// TPC-C database.
std::vector<ObjectProfile> CollectProfile(TpccDb* db);

/// Die allocation for `groups` from a measured profile, through
/// ApportionByServiceDemand: a region's footprint is `growth_factor` x its
/// measured pages (headroom for append-heavy objects), and its demand is the
/// measured page reads and writes of the profiled run.
PlacementConfig DerivePlacementFromProfile(
    const std::vector<PlacementGroup>& groups, const std::string& label,
    const std::vector<ObjectProfile>& profile, uint32_t total_dies,
    uint64_t usable_pages_per_die, double growth_factor = 1.4,
    double capacity_margin = 1.10);

}  // namespace noftl::tpcc
