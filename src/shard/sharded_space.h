// ShardedSpace — a SpaceProvider that stripes/partitions a logical page
// space across N independent shard backends (each a full device stack) and
// presents them as one space with one merged completion stream.
//
// This is the shared-nothing decomposition MPP systems use to scale a
// single-node engine across hosts: every shard owns a disjoint slice of the
// logical space plus its own device, translation layer, GC and wear
// leveling, and the router above them only scatters requests and merges
// completions. Nothing above this line — tablespaces, buffer pool, heap
// files, B-trees, the TPC-C driver — knows how many devices exist.
//
// Address layout: a sharded logical page number carries its shard index in
// the top bits (kShardShift) and the shard-local lpn in the low bits. An
// extent never spans shards, so the encoding is decided once per extent at
// AllocateExtent time by the placement policy:
//   * kStripe — consecutive extents round-robin across shards, so a
//     multi-extent scan fans out over every device;
//   * kByKey — the extent follows its placement key (the allocating object
//     id by default, or an explicit hint such as a TPC-C warehouse id), so
//     one object/warehouse pins to one shard and unrelated keys land on
//     unrelated devices.
// A shard that runs out of space spills to the next one (tracked in stats),
// so placement is a performance decision, never a correctness one.
//
// SubmitBatch scatters a batch into per-shard sub-batches, submits them all
// before waiting on any, and returns ONE merged ticket whose WaitBatch
// matches a single device: the batch retires at the max over shards, the
// parent's completion slots are filled at the reap (each shard's sub-batch is
// reaped, then its mirrored slots are copied back to their parent requests),
// and same-shard requests are booked in submission order. A
// batch whose requests all live on shard 0 (notably: every batch of a
// 1-shard space) is passed through untouched under shard 0's own ticket
// (tagged, so the router keeps no entry for it), so a 1-shard ShardedSpace
// is operation-for-operation identical to the unsharded stack. Atomic batches
// are single-shard by construction of the paper's mechanism (one mapper
// stamps the batch); a cross-shard atomic submission is cleanly rejected
// with every slot failed and no ticket.
// Thread safety: N workers may submit and wait concurrently; each merged
// ticket is reaped by one caller. The merged-ticket map is guarded by
// `mu_`, which WaitBatch takes only to detach its entry (passthrough tickets
// never touch it); sub-shard Submit/Wait calls happen with `mu_` released
// (the shards have their own latches). Ticket issue and the stats/degraded
// flags are lock-free atomics, and the placement-hint override is
// thread-local so one loader thread's pin never leaks into another's
// allocation. In the default single-thread mode every code path is
// byte-identical to the unlatched stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "storage/space_provider.h"

namespace noftl::shard {

/// How AllocateExtent picks the owning shard of a new extent.
enum class ShardPlacement : uint8_t {
  kStripe = 0,  ///< round-robin by extent (striped scans fan out)
  kByKey = 1,   ///< key % shard_count (object / warehouse pins to one shard)
};

struct ShardedSpaceStats {
  RelaxedCounter extents_allocated = 0;
  /// Extents that could not be placed on their policy shard and spilled to
  /// another shard with free space.
  RelaxedCounter extent_spills = 0;
  RelaxedCounter merged_batches = 0;       ///< multi-shard scatter/merge submissions
  RelaxedCounter passthrough_batches = 0;  ///< all-shard-0 batches forwarded as-is
  RelaxedCounter scatter_requests = 0;     ///< requests routed through sub-batches
  RelaxedCounter rejected_cross_shard_atomics = 0;
  /// Writes/trims refused because their shard is degraded to read-only.
  RelaxedCounter degraded_rejected_writes = 0;
  std::vector<RelaxedCounter> extents_per_shard;
  std::vector<RelaxedCounter> requests_per_shard;
};

class ShardedSpace : public storage::SpaceProvider {
 public:
  /// Shard index bits live at the top of an lpn; every backend must keep its
  /// local lpns below 2^kShardShift (any real device model does).
  static constexpr uint32_t kShardShift = 48;
  static constexpr uint64_t kLocalMask = (uint64_t{1} << kShardShift) - 1;

  static uint64_t Encode(size_t shard, uint64_t local_lpn) {
    return (static_cast<uint64_t>(shard) << kShardShift) | local_lpn;
  }
  static size_t ShardOf(uint64_t lpn) {
    return static_cast<size_t>(lpn >> kShardShift);
  }
  static uint64_t LocalOf(uint64_t lpn) { return lpn & kLocalMask; }

  /// `shards` must be non-empty and share one page size; the pointers must
  /// outlive the sharded space.
  ShardedSpace(std::vector<storage::SpaceProvider*> shards,
               ShardPlacement placement);

  size_t shard_count() const { return shards_.size(); }
  ShardPlacement placement() const { return placement_; }
  storage::SpaceProvider* shard(size_t s) { return shards_[s]; }

  /// Override the placement key used by kByKey for subsequent extent
  /// allocations (e.g. the TPC-C loader/driver pinning a warehouse). While
  /// unset, the key is whatever hint the caller of AllocateExtentHinted
  /// passes — the allocating object id on the tablespace growth path.
  /// The override is *thread-local*: each worker pins its own allocations
  /// (its warehouse) without racing or leaking the pin into other workers.
  void SetPlacementHint(uint64_t key);
  void ClearPlacementHint();

  const ShardedSpaceStats& stats() const { return stats_; }

  /// Degraded read-only mode: a shard whose device has exceeded its hard
  /// fault budget keeps serving reads (the data is still salvageable) but
  /// refuses writes and trims with Status::ReadOnly, and stops receiving new
  /// extents. The router above flips this when its health check trips.
  void SetShardDegraded(size_t s, bool degraded) {
    degraded_[s] = static_cast<uint8_t>(degraded);
  }
  bool ShardDegraded(size_t s) const { return degraded_[s] != 0; }
  bool AnyShardDegraded() const {
    for (const auto& d : degraded_) {
      if (d) return true;
    }
    return false;
  }

  // --- storage::SpaceProvider ---
  uint32_t page_size() const override;
  Result<uint64_t> AllocateExtent(uint64_t pages) override {
    return AllocateExtentHinted(pages, 0);
  }
  Result<uint64_t> AllocateExtentHinted(uint64_t pages, uint64_t hint) override;
  Status FreeExtent(uint64_t start, uint64_t pages) override;
  Status SubmitBatch(storage::IoBatch* batch, SimTime issue,
                     storage::IoTicket* ticket) override;
  Status WaitBatch(storage::IoTicket ticket, SimTime* complete) override;

  /// Scattered (merged) batches submitted but not fully reaped; passthrough
  /// batches are tracked by shard 0 alone.
  size_t PendingBatches() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

 private:
  /// One per-shard sub-batch of a scattered submission: the mirrored
  /// requests (shard-local lpns) and, index for index, the parent request
  /// each mirror stands for. The backend holds pointers into the mirrors'
  /// heap buffer, which moving the SubBatch leaves in place.
  struct SubBatch {
    size_t shard = 0;
    storage::IoBatch batch;
    std::vector<storage::IoRequest*> parents;
    storage::IoTicket ticket = 0;
  };

  struct Merged {
    SimTime issue = 0;
    /// The caller's batch; alive until reaped (SpaceProvider contract).
    storage::IoBatch* parent = nullptr;
    std::vector<SubBatch> subs;
  };

  /// Marks a passthrough ticket: the low bits are shard 0's own ticket, so
  /// a passthrough submission needs no entry in pending_. Merged tickets
  /// count up from 1 and never reach the tag bit.
  static constexpr storage::IoTicket kPassthroughTag = storage::IoTicket{1}
                                                       << 63;

  size_t PickShard(uint64_t key) const REQUIRES(alloc_mu_);
  /// Copy a reaped sub-batch's completion slots back to the parent requests
  /// its mirrors stand for, in submission order. A mirror the shard never
  /// delivered (a rejected sub-submission that returned before filling its
  /// slots) fails its parent with `error`.
  static void DeliverMirrors(const SubBatch& sub, const Status& error);

  std::vector<storage::SpaceProvider*> shards_;
  std::vector<Relaxed<uint8_t>> degraded_;
  ShardPlacement placement_;
  /// Serializes extent allocation (stripe cursor + probe/spill sequence).
  /// LockRank::kShardAlloc — above the shards' own allocator locks
  /// (kBackendAlloc); never taken under them.
  mutable Mutex alloc_mu_{LockRank::kShardAlloc};
  size_t stripe_cursor_ GUARDED_BY(alloc_mu_) = 0;
  /// Guards pending_ only, and is never held across a shard call, so it
  /// ranks as a leaf (LockRank::kShardPending) and the I/O entry checks
  /// (NOFTL_ASSERT_NO_UPPER_LATCHES) prove it is released around shard I/O.
  mutable Mutex mu_{LockRank::kShardPending};
  std::map<storage::IoTicket, Merged> pending_ GUARDED_BY(mu_);
  Relaxed<storage::IoTicket> next_ticket_ = storage::IoTicket{1};
  ShardedSpaceStats stats_;
};

}  // namespace noftl::shard
