// Ablation: over-provisioning vs write amplification on the FTL baseline.
//
// Random overwrite of the full logical space at OP ratios from 7% to 40%.
// The classic SSD trade-off curve: WA falls steeply as spare capacity
// grows. Regions expose the same lever per object (a region's unallocated
// capacity is its OP), which is why the TPC-C placement model charges each
// host write the GC cost at its region's utilization — this table
// calibrates the underlying curve.
//
// Flags: dies=16 blocks=48 writes_x=3 (multiples of logical capacity)
#include <cstdio>

#include "bench/bench_util.h"
#include "flash/device.h"
#include "ftl/page_ftl.h"

namespace noftl::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t writes_x = flags.GetInt("writes_x", 3);

  printf("Over-provisioning vs write amplification (page-mapping FTL, "
         "uniform random overwrite)\n\n");
  printf("%-8s | %12s %12s %12s %12s\n", "OP", "sectors", "WA", "copybacks",
         "erases");
  PrintRule(64);
  for (double op : {0.07, 0.12, 0.20, 0.28, 0.40}) {
    flash::FlashGeometry geo;
    geo.channels = 4;
    geo.dies_per_channel = static_cast<uint32_t>(flags.GetInt("dies", 16)) / 4;
    // Enough blocks that the mapper's fixed GC reserve (6 blocks/die) stays
    // below the smallest OP point; otherwise low OP values clamp together.
    geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 96));
    geo.pages_per_block = 64;
    geo.page_size = 4096;
    flash::FlashDevice device(geo, flash::FlashTiming{});
    ftl::FtlOptions options;
    options.over_provisioning = op;
    ftl::PageMappingFtl ftl(&device, options);

    const uint64_t n = ftl.sector_count();
    for (uint64_t lba = 0; lba < n; lba++) {
      ftl.WriteSector(lba, 0, nullptr, nullptr);
    }
    device.stats().Reset();
    Rng rng(3);
    SimTime now = 0;
    for (uint64_t i = 0; i < writes_x * n; i++) {
      now += 60;
      Status s = ftl.WriteSector(rng.Below(n), now, nullptr, nullptr);
      if (!s.ok()) {
        fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const auto& stats = device.stats();
    printf("%-7.0f%% | %12llu %12.2f %12llu %12llu\n", op * 100,
           static_cast<unsigned long long>(n), stats.WriteAmplification(),
           static_cast<unsigned long long>(stats.gc_copybacks()),
           static_cast<unsigned long long>(stats.gc_erases()));
  }
  PrintRule(64);
  printf("\nshape: WA decreases monotonically (and convexly) with OP.\n");
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
