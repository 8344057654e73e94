#include "shard/shard_router.h"

#include <algorithm>

#include "common/logging.h"
#include "ftl/checkpoint.h"

namespace noftl::shard {

namespace {

/// Quiesce every scheduler for the scope of a DDL or checkpoint fan-out so a
/// background grant never relocates blocks the fan-out is touching. Legal
/// while holding the router lock: kRouter (50) ranks below kScheduler (580).
class ScopedSchedulerQuiesce {
 public:
  explicit ScopedSchedulerQuiesce(
      std::vector<std::unique_ptr<sched::BackgroundScheduler>>& schedulers)
      : schedulers_(schedulers) {
    for (auto& s : schedulers_) s->Quiesce();
  }
  ~ScopedSchedulerQuiesce() {
    for (auto& s : schedulers_) s->Resume();
  }
  ScopedSchedulerQuiesce(const ScopedSchedulerQuiesce&) = delete;
  ScopedSchedulerQuiesce& operator=(const ScopedSchedulerQuiesce&) = delete;

 private:
  std::vector<std::unique_ptr<sched::BackgroundScheduler>>& schedulers_;
};

}  // namespace

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(
    const ShardRouterOptions& options) {
  if (options.shard.shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  NOFTL_RETURN_IF_ERROR(options.geometry.Validate());
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter(options));
  // Unpublished, but the health flags are GUARDED_BY(ddl_mu_): hold the
  // (uncontended) lock so the static analysis sees a consistent story.
  MutexLock lock(router->ddl_mu_);
  router->shards_.resize(options.shard.shard_count);
  router->degraded_.assign(options.shard.shard_count, 0);
  std::vector<storage::SpaceProvider*> ftl_spaces;
  for (Shard& s : router->shards_) {
    s.device =
        std::make_unique<flash::FlashDevice>(options.geometry, options.timing);
    if (options.backend == ShardBackend::kNoFtl) {
      s.regions = std::make_unique<region::RegionManager>(s.device.get(),
                                                          options.global_wl);
    } else {
      s.ftl = std::make_unique<ftl::PageMappingFtl>(s.device.get(),
                                                    options.ftl);
      s.ftl_space = std::make_unique<storage::FtlSpace>(s.ftl.get());
      ftl_spaces.push_back(s.ftl_space.get());
    }
  }
  if (options.backend == ShardBackend::kFtl) {
    router->ftl_sharded_ = std::make_unique<ShardedSpace>(
        std::move(ftl_spaces), options.shard.placement);
  }
  if (options.scheduler.enabled) {
    // One scheduler per shard stack. FTL mappers exist now and register
    // here; region mappers come and go with the DDL fan-outs below.
    for (Shard& s : router->shards_) {
      router->schedulers_.push_back(std::make_unique<sched::BackgroundScheduler>(
          s.device.get(), options.scheduler));
      if (s.ftl != nullptr) {
        router->schedulers_.back()->RegisterMapper(&s.ftl->mapper());
      }
    }
  }
  return router;
}

Result<ShardedSpace*> ShardRouter::CreateRegion(
    const region::RegionOptions& options) {
  if (options_.backend != ShardBackend::kNoFtl) {
    return Status::NotSupported("regions require the native-flash backend");
  }
  MutexLock lock(ddl_mu_);
  ScopedSchedulerQuiesce quiesce(schedulers_);
  if (fanned_regions_.count(options.name) != 0) {
    return Status::AlreadyExists("sharded region " + options.name);
  }
  FannedRegion fanned;
  std::vector<storage::SpaceProvider*> providers;
  for (size_t s = 0; s < shards_.size(); s++) {
    auto rg = shards_[s].regions->CreateRegion(options);
    if (!rg.ok()) {
      // Roll back the shards already holding the region so a failed fan-out
      // leaves no half-created region behind.
      for (size_t undo = 0; undo < s; undo++) {
        (void)shards_[undo].regions->DropRegion(options.name);
      }
      return rg.status();
    }
    fanned.per_shard.push_back(std::make_unique<storage::RegionSpace>(*rg));
    providers.push_back(fanned.per_shard.back().get());
  }
  fanned.sharded = std::make_unique<ShardedSpace>(std::move(providers),
                                                  options_.shard.placement);
  ShardedSpace* out = fanned.sharded.get();
  fanned_regions_[options.name] = std::move(fanned);
  for (size_t s = 0; s < schedulers_.size(); s++) {
    region::Region* rg = shards_[s].regions->Get(options.name);
    if (rg != nullptr) schedulers_[s]->RegisterMapper(&rg->mapper());
  }
  return out;
}

Status ShardRouter::DropRegion(const std::string& name) {
  if (options_.backend != ShardBackend::kNoFtl) {
    return Status::NotSupported("no regions under the FTL backend");
  }
  MutexLock lock(ddl_mu_);
  ScopedSchedulerQuiesce quiesce(schedulers_);
  auto it = fanned_regions_.find(name);
  if (it == fanned_regions_.end()) {
    return Status::NotFound("sharded region " + name);
  }
  // Every member must be droppable (no mapped pages) before any is dropped,
  // so a Busy shard cannot leave the fan-out half-torn-down.
  for (Shard& s : shards_) {
    region::Region* rg = s.regions->Get(name);
    if (rg == nullptr) return Status::NotFound("region " + name);
    if (rg->mapper().valid_pages() != 0) {
      return Status::Busy("region " + name + " still holds mapped pages");
    }
  }
  fanned_regions_.erase(it);
  for (size_t s = 0; s < shards_.size(); s++) {
    region::Region* rg = shards_[s].regions->Get(name);
    if (s < schedulers_.size() && rg != nullptr) {
      schedulers_[s]->UnregisterMapper(&rg->mapper());
    }
    NOFTL_RETURN_IF_ERROR(shards_[s].regions->DropRegion(name));
  }
  return Status::OK();
}

Status ShardRouter::GrowRegion(const std::string& name, uint32_t count,
                               SimTime issue) {
  MutexLock lock(ddl_mu_);
  ScopedSchedulerQuiesce quiesce(schedulers_);
  // Precheck the cheap common failure so the fan-out is usually all-or-
  // nothing, and roll back on an unexpected mid-loop error: the fanned
  // region must keep the same chip count on every shard, or a retry would
  // grow the already-grown shards twice.
  for (Shard& s : shards_) {
    if (s.regions->Get(name) == nullptr) return Status::NotFound(name);
    if (s.regions->free_dies() < count) {
      return Status::NoSpace("shard free die pool cannot grow " + name +
                             " by " + std::to_string(count));
    }
  }
  for (size_t i = 0; i < shards_.size(); i++) {
    Status s = shards_[i].regions->GrowRegion(name, count, issue);
    if (!s.ok()) {
      for (size_t undo = 0; undo < i; undo++) {
        (void)shards_[undo].regions->ShrinkRegion(name, count, issue);
      }
      return s;
    }
  }
  return Status::OK();
}

Status ShardRouter::ShrinkRegion(const std::string& name, uint32_t count,
                                 SimTime issue) {
  MutexLock lock(ddl_mu_);
  ScopedSchedulerQuiesce quiesce(schedulers_);
  // A shrink can fail per shard on data it alone holds (migration needs
  // room), so symmetry is restored by growing the already-shrunk shards
  // back (the dies just returned to their free pools).
  for (size_t i = 0; i < shards_.size(); i++) {
    Status s = shards_[i].regions->ShrinkRegion(name, count, issue);
    if (!s.ok()) {
      for (size_t undo = 0; undo < i; undo++) {
        (void)shards_[undo].regions->GrowRegion(name, count, issue);
      }
      return s;
    }
  }
  return Status::OK();
}

ShardedSpace* ShardRouter::space(const std::string& region_name) {
  MutexLock lock(ddl_mu_);
  auto it = fanned_regions_.find(region_name);
  return it == fanned_regions_.end() ? nullptr : it->second.sharded.get();
}

region::Region* ShardRouter::region(size_t s, const std::string& name) {
  if (s >= shards_.size() || shards_[s].regions == nullptr) return nullptr;
  return shards_[s].regions->Get(name);
}

Status ShardRouter::Checkpoint(SimTime issue, SimTime* complete) {
  MutexLock lock(ddl_mu_);
  // A checkpoint must capture a mapping the scheduler is not mutating.
  ScopedSchedulerQuiesce quiesce(schedulers_);
  SimTime latest = issue;
  for (Shard& s : shards_) {
    if (s.regions != nullptr) {
      for (auto* rg : s.regions->regions()) {
        ftl::CheckpointBestEffort(rg->mapper(), rg->name().c_str(), issue,
                                  &latest);
      }
    }
    if (s.ftl != nullptr) {
      ftl::CheckpointBestEffort(s.ftl->mapper(), "ftl", issue, &latest);
    }
  }
  if (complete != nullptr) *complete = latest;
  return Status::OK();
}

void ShardRouter::SetPlacementHint(uint64_t key) {
  MutexLock lock(ddl_mu_);
  if (ftl_sharded_ != nullptr) ftl_sharded_->SetPlacementHint(key);
  for (auto& [name, fanned] : fanned_regions_) {
    (void)name;
    fanned.sharded->SetPlacementHint(key);
  }
}

uint64_t ShardRouter::TickSchedulers(SimTime now) {
  uint64_t moved = 0;
  for (auto& s : schedulers_) moved += s->Tick(now);
  return moved;
}

void ShardRouter::StartSchedulers() {
  for (auto& s : schedulers_) s->Start();
}

void ShardRouter::StopSchedulers() {
  for (auto& s : schedulers_) s->Stop();
}

sched::SchedulerStats ShardRouter::SchedulerStatsTotal() const {
  sched::SchedulerStats total;
  for (const auto& s : schedulers_) total += s->stats();
  return total;
}

void ShardRouter::ClearPlacementHint() {
  MutexLock lock(ddl_mu_);
  if (ftl_sharded_ != nullptr) ftl_sharded_->ClearPlacementHint();
  for (auto& [name, fanned] : fanned_regions_) {
    (void)name;
    fanned.sharded->ClearPlacementHint();
  }
}

std::vector<ShardHealthStatus> ShardRouter::UpdateHealth() {
  MutexLock lock(ddl_mu_);
  std::vector<ShardHealthStatus> out;
  out.reserve(shards_.size());
  const uint64_t budget = options_.shard.hard_fault_budget;
  for (size_t s = 0; s < shards_.size(); s++) {
    const flash::FlashDevice& dev = *shards_[s].device;
    ShardHealthStatus h;
    h.shard = s;
    // Hard faults are the unrecoverable kind: pages the media can no longer
    // return (hard read failures) and blocks that will not erase. Program
    // failures are absorbed by the mapper's write-retry path and transient
    // read failures by the read-retry path, so they count as transient.
    h.hard_faults = dev.read_failures_hard() + dev.erase_failures();
    h.transient_faults =
        dev.read_failures_transient() + dev.program_failures();
    if (budget > 0 && h.hard_faults > budget) degraded_[s] = 1;
    h.degraded = degraded_[s] != 0;
    out.push_back(h);
    // Degradation is sticky and applied to every space the router hands out.
    if (ftl_sharded_ != nullptr) {
      ftl_sharded_->SetShardDegraded(s, h.degraded);
    }
    for (auto& [name, fanned] : fanned_regions_) {
      (void)name;
      fanned.sharded->SetShardDegraded(s, h.degraded);
    }
  }
  return out;
}

Result<std::vector<std::unique_ptr<ftl::OutOfPlaceMapper>>>
ShardRouter::RecoverShardMappers(const std::vector<ShardRecoveryInput>& shards,
                                 SimTime issue, SimTime* complete) {
  std::vector<std::unique_ptr<ftl::OutOfPlaceMapper>> out;
  out.reserve(shards.size());
  SimTime latest = issue;
  for (const ShardRecoveryInput& in : shards) {
    SimTime done = issue;
    auto mapper = ftl::OutOfPlaceMapper::RecoverFromDevice(
        in.device, in.dies, in.logical_pages, in.options, issue, &done);
    if (!mapper.ok()) return mapper.status();
    latest = std::max(latest, done);
    out.push_back(std::move(*mapper));
  }
  if (complete != nullptr) *complete = latest;
  return out;
}

}  // namespace noftl::shard
