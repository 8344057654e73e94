// ShardRouter — owns N independent shard backends (each a full FlashDevice
// plus a RegionManager or PageMappingFtl stack) and hands out ShardedSpace
// providers that stripe the logical space across them.
//
// Every Database opens one router, with one shard or more: under the native
// (NoFTL) backend every shard runs its own RegionManager and CreateRegion
// fans out one same-named region per shard, merged behind a ShardedSpace;
// under the FTL backend every shard runs its own PageMappingFtl and one
// ShardedSpace spans the per-shard LBA spaces. With one shard every batch
// passes through the ShardedSpace untouched, so a 1-shard router is the
// single-device stack operation for operation.
// Checkpointing fans out to every shard's mappers at one issue time (shards
// are independent devices, so the caller waits for the slowest shard, not
// the sum), and recovery opens each shard independently with the per-device
// checkpoint + delta-scan machinery.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/page_ftl.h"
#include "noftl/region_manager.h"
#include "sched/background_scheduler.h"
#include "shard/sharded_space.h"

namespace noftl::shard {

/// Which stack each shard runs (mirrors db::Backend without depending on it).
enum class ShardBackend : uint8_t {
  kNoFtl = 0,
  kFtl = 1,
};

/// Sharding knobs carried by DatabaseOptions.
struct ShardOptions {
  /// Number of independent device stacks (>= 1). One shard is the
  /// single-device stack: its ShardedSpaces pass every batch through.
  uint32_t shard_count = 1;
  ShardPlacement placement = ShardPlacement::kStripe;
  /// Hard device faults (unreadable pages + failed erases) a shard may
  /// accumulate before UpdateHealth flips it to degraded read-only.
  /// 0 disables the budget (never degrade).
  uint64_t hard_fault_budget = 0;
};

/// One shard's health as last observed by UpdateHealth.
struct ShardHealthStatus {
  size_t shard = 0;
  bool degraded = false;       ///< read-only: hard faults exceeded the budget
  uint64_t hard_faults = 0;    ///< hard read failures + erase failures
  uint64_t transient_faults = 0;
};

struct ShardRouterOptions {
  ShardOptions shard;
  ShardBackend backend = ShardBackend::kNoFtl;
  /// Per-shard device shape: every shard gets its own full device of this
  /// geometry (scale-out adds devices, it does not split one).
  flash::FlashGeometry geometry;
  flash::FlashTiming timing;
  ftl::FtlOptions ftl;               ///< backend == kFtl
  region::GlobalWlOptions global_wl; ///< backend == kNoFtl
  /// Background-service scheduler: one per shard stack when enabled, with
  /// every mapper of the shard registered (see sched/background_scheduler.h).
  sched::SchedulerOptions scheduler;
};

class ShardRouter {
 public:
  static Result<std::unique_ptr<ShardRouter>> Open(
      const ShardRouterOptions& options);

  const ShardRouterOptions& options() const { return options_; }
  size_t shard_count() const { return shards_.size(); }

  flash::FlashDevice* device(size_t s) { return shards_[s].device.get(); }
  region::RegionManager* regions(size_t s) { return shards_[s].regions.get(); }
  ftl::PageMappingFtl* ftl(size_t s) { return shards_[s].ftl.get(); }

  /// kFtl only: the one sharded space over the per-shard LBA spaces.
  ShardedSpace* ftl_space() { return ftl_sharded_.get(); }

  // --- Region fan-out (backend == kNoFtl) ---

  /// Create `options`-shaped regions named options.name on EVERY shard and
  /// return the ShardedSpace that stripes across them (owned by the router,
  /// looked up again with space()). Fails atomically: a shard that cannot
  /// host the region rolls back the ones already created.
  Result<ShardedSpace*> CreateRegion(const region::RegionOptions& options);
  Status DropRegion(const std::string& name);
  /// Grow/shrink the fanned-out region on every shard. The fan-out keeps
  /// the region's chip count identical across shards: grow prechecks every
  /// shard's free pool, and a mid-loop failure of either operation rolls
  /// the already-resized shards back before returning the error.
  Status GrowRegion(const std::string& name, uint32_t count, SimTime issue);
  Status ShrinkRegion(const std::string& name, uint32_t count, SimTime issue);

  /// Sharded space of a region created through CreateRegion (null if none).
  ShardedSpace* space(const std::string& region_name);
  /// One shard's member region of a fanned-out region (null if none).
  region::Region* region(size_t s, const std::string& name);

  // --- Cross-shard maintenance ---

  /// Checkpoint every shard's mappers, all issued at `issue`: shards are
  /// independent devices, so `*complete` (if non-null) receives the max —
  /// not the sum — over shards. Per-mapper failures are best-effort (older
  /// epochs, ultimately the full scan, remain the recovery path).
  Status Checkpoint(SimTime issue, SimTime* complete);

  /// Forward a placement-key override to every sharded space (kByKey
  /// placement; e.g. pin the current TPC-C warehouse).
  void SetPlacementHint(uint64_t key);
  void ClearPlacementHint();

  // --- Background schedulers (options.scheduler.enabled) ---

  /// Shard s's scheduler (null when disabled).
  sched::BackgroundScheduler* scheduler(size_t s) {
    return s < schedulers_.size() ? schedulers_[s].get() : nullptr;
  }
  /// Deterministic mode: one scheduling pass per shard at sim time `now`.
  /// Returns background pages moved across shards; 0 when disabled.
  uint64_t TickSchedulers(SimTime now);
  /// Service-thread mode: spawn / join one service thread per shard.
  void StartSchedulers();
  void StopSchedulers();
  /// Counter totals over every shard's scheduler.
  sched::SchedulerStats SchedulerStatsTotal() const;

  // --- Health / graceful degradation ---

  /// Re-read every shard device's fault counters, flip shards whose hard
  /// faults exceed options.shard.hard_fault_budget to degraded read-only on
  /// every sharded space the router hands out, and return the per-shard
  /// health. Degradation is sticky: a shard never un-degrades (the device
  /// does not heal). With a zero budget this only reports, never degrades.
  std::vector<ShardHealthStatus> UpdateHealth();

  // --- Per-shard recovery (the PR 2 checkpoint + delta-scan machinery) ---

  /// One crashed shard to recover: its device, the die set and logical size
  /// of the mapper to rebuild, and the mapper options (checkpoint slots
  /// etc. must match what was running before the crash).
  struct ShardRecoveryInput {
    flash::FlashDevice* device = nullptr;
    std::vector<flash::DieId> dies;
    uint64_t logical_pages = 0;
    ftl::MapperOptions options;
  };

  /// Recover every shard's mapper independently, all issued at `issue`.
  /// Shards are separate devices with separate OOB streams, so `*complete`
  /// receives the max over the per-shard recovery times. Result order
  /// matches the input order.
  static Result<std::vector<std::unique_ptr<ftl::OutOfPlaceMapper>>>
  RecoverShardMappers(const std::vector<ShardRecoveryInput>& shards,
                      SimTime issue, SimTime* complete);

 private:
  explicit ShardRouter(const ShardRouterOptions& options) : options_(options) {}

  struct Shard {
    std::unique_ptr<flash::FlashDevice> device;
    std::unique_ptr<region::RegionManager> regions;  ///< kNoFtl
    std::unique_ptr<ftl::PageMappingFtl> ftl;        ///< kFtl
    std::unique_ptr<storage::FtlSpace> ftl_space;    ///< kFtl
  };

  /// Per-shard RegionSpace facades plus the ShardedSpace striped over them.
  struct FannedRegion {
    std::vector<std::unique_ptr<storage::RegionSpace>> per_shard;
    std::unique_ptr<ShardedSpace> sharded;
  };

  ShardRouterOptions options_;
  /// Immutable after Open (the shard stacks themselves have their own
  /// latches; only the fan-out maps below change afterwards).
  std::vector<Shard> shards_;
  /// Router DDL/health mutex — the OUTERMOST lock of the stack
  /// (LockRank::kRouter): region fan-out, health sweeps and placement-hint
  /// broadcasts reach every lower layer while holding it. Guards the
  /// fanned-region map and the sticky per-shard degraded flags.
  mutable Mutex ddl_mu_{LockRank::kRouter};
  std::vector<uint8_t> degraded_ GUARDED_BY(ddl_mu_);
  std::unique_ptr<ShardedSpace> ftl_sharded_;
  std::map<std::string, FannedRegion> fanned_regions_ GUARDED_BY(ddl_mu_);
  /// One per shard when options_.scheduler.enabled; declared last so they
  /// are destroyed (service threads joined, reclaimer flags cleared) before
  /// the shard stacks whose mappers they reference.
  std::vector<std::unique_ptr<sched::BackgroundScheduler>> schedulers_;
};

}  // namespace noftl::shard
