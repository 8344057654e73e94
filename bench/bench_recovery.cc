// Restart cost: full OOB-scan recovery vs checkpoint + per-die delta scan.
//
// NoFTL's address translation is reconstructible from page metadata alone,
// but a full scan at restart reads the OOB of *every* programmed page. The
// checkpoint subsystem serializes the L2P map into reserved flash blocks
// (periodically, every `interval` host writes here) so recovery only
// rescans blocks the device mutated after the newest checkpoint — and all
// OOB reads run as independent per-die streams, so the simulated scan time
// is the max over dies, not the sum.
//
// Twin devices replay the identical GC-churned workload (including the
// periodic checkpoint writes). One recovers through the checkpoint + delta
// path, the other through the forced full scan; the bench reports simulated
// recovery time, pages scanned and host wall time for both, and verifies
// the two recovered mappers agree on the complete L2P and version state.
//
// Emits BENCH_recovery.json.
//
// Flags: dies=8 blocks=1024 updates=120000 interval=50000
//        utilization=0.85 seed=42 out=BENCH_recovery.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "flash/device.h"
#include "ftl/checkpoint.h"
#include "ftl/mapping.h"

namespace noftl::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct RunResult {
  uint64_t sim_us = 0;         ///< simulated recovery time
  double wall_ms = 0;          ///< host-side recovery wall time
  uint64_t pages_scanned = 0;  ///< OOB pages read during recovery
  uint64_t ckpt_epoch = 0;     ///< checkpoint epoch used (0 = full scan)
  std::unique_ptr<ftl::OutOfPlaceMapper> mapper;
};

flash::FlashGeometry MakeGeometry(const Flags& flags) {
  flash::FlashGeometry geo;
  const uint32_t dies = static_cast<uint32_t>(flags.GetInt("dies", 8));
  geo.channels = dies >= 4 ? dies / 2 : dies;
  geo.dies_per_channel = dies / geo.channels;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 1024));
  geo.pages_per_block = 64;
  geo.page_size = 2048;
  return geo;
}

ftl::MapperOptions MakeOptions(const Flags& flags) {
  ftl::MapperOptions options;
  options.checkpoint_slots = 2;
  options.checkpoint_interval_writes = flags.GetInt("interval", 50000);
  return options;
}

uint64_t LogicalPages(const Flags& flags, const flash::FlashGeometry& geo,
                      const ftl::MapperOptions& options) {
  const uint64_t reserved =
      options.gc_high_watermark + 2 +
      ftl::CheckpointStore::ReservedBlocksPerDie(geo, options.checkpoint_slots);
  const uint64_t usable = static_cast<uint64_t>(geo.total_dies()) *
                          (geo.blocks_per_die - reserved) *
                          geo.pages_per_block;
  return static_cast<uint64_t>(flags.GetDouble("utilization", 0.85) *
                               static_cast<double>(usable));
}

/// Fill + churn the device; the periodic write-count trigger takes the
/// checkpoints. Returns the simulated end-of-workload time.
SimTime RunWorkload(const Flags& flags, flash::FlashDevice* device,
                    const flash::FlashGeometry& geo, uint64_t logical) {
  ftl::OutOfPlaceMapper mapper(device, [&] {
    std::vector<flash::DieId> dies(geo.total_dies());
    for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
    return dies;
  }(), logical, MakeOptions(flags));
  if (!mapper.CheckCapacity().ok()) {
    fprintf(stderr, "capacity check failed\n");
    exit(1);
  }
  SimTime now = 0;
  for (uint64_t lpn = 0; lpn < logical; lpn++) {
    now += 10;
    if (!mapper.Write(lpn, now, flash::OpOrigin::kHost, nullptr, 0, nullptr)
             .ok()) {
      fprintf(stderr, "fill failed\n");
      exit(1);
    }
  }
  const uint64_t updates = flags.GetInt("updates", 120000);
  Rng rng(flags.GetInt("seed", 42));
  for (uint64_t i = 0; i < updates; i++) {
    now += 10;
    if (!mapper.Write(rng.Below(logical), now, flash::OpOrigin::kHost, nullptr,
                      0, nullptr)
             .ok()) {
      fprintf(stderr, "churn write failed\n");
      exit(1);
    }
  }
  if (mapper.stats().checkpoints_written == 0) {
    fprintf(stderr, "warning: workload too short for the checkpoint "
                    "interval — raise updates= or lower interval=\n");
  }
  return now;
}  // "crash": the mapper's RAM state is dropped here

RunResult Recover(const Flags& flags, flash::FlashDevice* device,
                  const flash::FlashGeometry& geo, uint64_t logical,
                  SimTime crash_time, bool via_checkpoint) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  RunResult r;
  SimTime done = crash_time;
  const auto start = Clock::now();
  auto recover = via_checkpoint
                     ? &ftl::OutOfPlaceMapper::RecoverFromDevice
                     : &ftl::OutOfPlaceMapper::DebugRecoverByFullScan;
  auto recovered =
      recover(device, dies, logical, MakeOptions(flags), crash_time, &done);
  r.wall_ms = MsSince(start);
  if (!recovered.ok()) {
    fprintf(stderr, "recovery failed: %s\n",
            recovered.status().ToString().c_str());
    exit(1);
  }
  r.mapper = std::move(*recovered);
  r.sim_us = done - crash_time;
  r.pages_scanned = r.mapper->stats().recovery_pages_scanned;
  r.ckpt_epoch = r.mapper->stats().recovery_ckpt_epoch;
  return r;
}

/// The equivalence check the recovery tests enforce, repeated here on the
/// bench-scale state: identical L2P and versions across both paths.
bool StatesIdentical(ftl::OutOfPlaceMapper& a, ftl::OutOfPlaceMapper& b,
                     uint64_t logical) {
  if (a.valid_pages() != b.valid_pages()) return false;
  if (a.committed_batches() != b.committed_batches()) return false;
  for (uint64_t lpn = 0; lpn < logical; lpn++) {
    if (a.IsMapped(lpn) != b.IsMapped(lpn)) return false;
    if (a.DebugVersionOf(lpn) != b.DebugVersionOf(lpn)) return false;
    if (a.IsMapped(lpn) && !(*a.Lookup(lpn) == *b.Lookup(lpn))) return false;
  }
  return a.VerifyIntegrity().ok() && b.VerifyIntegrity().ok();
}

JsonObject ToJson(const RunResult& r) {
  JsonObject o;
  o.Set("sim_recovery_us", r.sim_us)
      .Set("wall_ms", r.wall_ms)
      .Set("pages_scanned", r.pages_scanned)
      .Set("checkpoint_epoch", r.ckpt_epoch);
  return o;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const flash::FlashGeometry geo = MakeGeometry(flags);
  const ftl::MapperOptions opts = MakeOptions(flags);
  const uint64_t logical = LogicalPages(flags, geo, opts);

  printf("Recovery — full OOB scan vs checkpoint + per-die delta scan\n");
  printf("dies=%u blocks_per_die=%u logical_pages=%llu updates=%llu "
         "checkpoint_interval=%llu\n\n",
         geo.total_dies(), geo.blocks_per_die,
         static_cast<unsigned long long>(logical),
         static_cast<unsigned long long>(flags.GetInt("updates", 120000)),
         static_cast<unsigned long long>(flags.GetInt("interval", 50000)));

  // Twin devices, identical GC-churned workload (checkpoints included).
  flash::FlashDevice device_a(geo, flash::FlashTiming{});
  flash::FlashDevice device_b(geo, flash::FlashTiming{});
  const SimTime crash_a = RunWorkload(flags, &device_a, geo, logical);
  const SimTime crash_b = RunWorkload(flags, &device_b, geo, logical);
  if (crash_a != crash_b) {
    fprintf(stderr, "twin workloads diverged\n");
    return 1;
  }

  // A crash empties the device queues: restart begins with idle dies, so
  // recovery is issued past every busy horizon — its simulated time then
  // measures the recovery work itself, not the pre-crash write backlog.
  SimTime restart = crash_a;
  for (uint32_t die = 0; die < geo.total_dies(); die++) {
    restart = std::max({restart, device_a.DieBusyUntil(die),
                        device_b.DieBusyUntil(die)});
  }

  RunResult delta = Recover(flags, &device_a, geo, logical, restart, true);
  RunResult full = Recover(flags, &device_b, geo, logical, restart, false);
  const bool identical =
      StatesIdentical(*delta.mapper, *full.mapper, logical);

  printf("%-18s | %16s %12s %14s %10s\n", "recovery path", "sim time (us)",
         "wall ms", "pages scanned", "ckpt epoch");
  PrintRule(78);
  printf("%-18s | %16llu %12.1f %14llu %10llu\n", "full scan",
         static_cast<unsigned long long>(full.sim_us), full.wall_ms,
         static_cast<unsigned long long>(full.pages_scanned),
         static_cast<unsigned long long>(full.ckpt_epoch));
  printf("%-18s | %16llu %12.1f %14llu %10llu\n", "checkpoint+delta",
         static_cast<unsigned long long>(delta.sim_us), delta.wall_ms,
         static_cast<unsigned long long>(delta.pages_scanned),
         static_cast<unsigned long long>(delta.ckpt_epoch));
  PrintRule(78);
  const double sim_ratio =
      delta.sim_us > 0
          ? static_cast<double>(full.sim_us) / static_cast<double>(delta.sim_us)
          : 0.0;
  const double scan_ratio =
      delta.pages_scanned > 0
          ? static_cast<double>(full.pages_scanned) /
                static_cast<double>(delta.pages_scanned)
          : static_cast<double>(full.pages_scanned);
  printf("\nsimulated recovery speedup: %.1fx; pages-scanned ratio: %.1fx; "
         "post-recovery state identical: %s\n",
         sim_ratio, scan_ratio, identical ? "yes" : "NO");

  JsonObject out;
  JsonObject config;
  config.Set("dies", static_cast<uint64_t>(geo.total_dies()))
      .Set("channels", static_cast<uint64_t>(geo.channels))
      .Set("blocks_per_die", static_cast<uint64_t>(geo.blocks_per_die))
      .Set("pages_per_block", static_cast<uint64_t>(geo.pages_per_block))
      .Set("page_size", static_cast<uint64_t>(geo.page_size))
      .Set("logical_pages", logical)
      .Set("utilization", flags.GetDouble("utilization", 0.85))
      .Set("updates", flags.GetInt("updates", 120000))
      .Set("checkpoint_interval_writes", flags.GetInt("interval", 50000))
      .Set("checkpoint_slots", static_cast<uint64_t>(opts.checkpoint_slots))
      .Set("seed", flags.GetInt("seed", 42));
  JsonObject speedup;
  speedup.Set("sim_recovery_ratio", sim_ratio)
      .Set("pages_scanned_ratio", scan_ratio);
  out.Set("bench", std::string("recovery"))
      .Set("config", config)
      .Set("full_scan", ToJson(full))
      .Set("checkpoint_delta", ToJson(delta))
      .Set("speedup", speedup)
      .Set("post_recovery_state_identical", identical ? 1 : 0);

  const std::string path = flags.GetString("out", "BENCH_recovery.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
