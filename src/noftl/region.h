// NoFTL regions — the paper's physical storage structure.
//
// A region is a set of flash dies over which data is striped, with its own
// out-of-place address translation, garbage collection, and wear leveling.
// Database objects with similar access properties are placed in the same
// region; objects with different properties in different, physically
// separate regions (hot/cold separation at object granularity).
//
// A region exports a logical page space; tablespaces allocate *extents* from
// it and the DBMS reads/writes logical pages directly — the "Native Flash
// Interface" path of the paper's Figure 1, with no FTL or file system in
// between.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/mapping.h"
#include "storage/io_batch.h"

namespace noftl::region {

using RegionId = uint32_t;

/// CREATE REGION parameters (paper §2):
///   CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1280M);
struct RegionOptions {
  std::string name;
  /// Number of dies ("chips") the region spans. Required, >= 1.
  uint32_t max_chips = 1;
  /// Distinct channels the dies may come from; 0 = no constraint.
  uint32_t max_channels = 0;
  /// Exported logical size in bytes; 0 = all usable capacity of the die set
  /// (physical capacity minus the per-die GC reserve).
  uint64_t max_size_bytes = 0;
  ftl::MapperOptions mapper;
};

/// A live region: die set + translation + GC/WL, plus an extent allocator
/// for the tablespaces bound to it.
class Region {
 public:
  Region(RegionId id, const RegionOptions& options,
         flash::FlashDevice* device, std::vector<flash::DieId> dies);

  RegionId id() const { return id_; }
  const std::string& name() const { return options_.name; }
  const RegionOptions& options() const { return options_; }
  std::vector<flash::DieId> dies() const { return mapper_->dies(); }
  uint64_t logical_pages() const { return mapper_->logical_pages(); }
  uint32_t page_size() const;

  // --- Page I/O (the DBMS storage manager calls these directly) ---

  /// Read region-logical page `rlpn`.
  Status ReadPage(uint64_t rlpn, SimTime issue, char* data, SimTime* complete);

  /// Write region-logical page `rlpn` out-of-place. `object_id` identifies
  /// the owning database object and is persisted in the page's OOB metadata.
  Status WritePage(uint64_t rlpn, SimTime issue, const char* data,
                   uint32_t object_id, SimTime* complete);

  /// Deallocate a logical page (the DBMS dropped/shrank an object).
  Status TrimPage(uint64_t rlpn);

  /// Submission entry point: enqueue every request of the batch at `issue`
  /// and return a ticket immediately (write requests carry their owning
  /// object id). Same-die requests serialize, cross-die requests proceed
  /// in parallel; completion slots are filled only when the caller reaps
  /// via WaitBatch, so computation between submit and reap overlaps with
  /// the in-flight flash work. An atomic batch (writes only)
  /// routes through WriteAtomic and installs all-or-nothing at submit (the
  /// commit decision cannot wait), with its completions delivered at reap;
  /// a failed atomic submission returns the error with the slots filled and
  /// no ticket.
  Status SubmitBatch(storage::IoBatch* batch, SimTime issue,
                     storage::IoTicket* ticket);

  /// Reap all requests of `ticket`; `*complete` (if non-null) receives the
  /// batch finish time (max over successful requests, at least the issue
  /// time). No-op for an unknown/already-reaped ticket.
  Status WaitBatch(storage::IoTicket ticket, SimTime* complete) {
    return mapper_->WaitBatch(ticket, complete);
  }

  /// Call-and-resolve convenience: submit + wait in one step.
  Status RunBatch(storage::IoBatch* batch, SimTime issue, SimTime* complete) {
    storage::IoTicket ticket = 0;
    NOFTL_RETURN_IF_ERROR(SubmitBatch(batch, issue, &ticket));
    return WaitBatch(ticket, complete);
  }

  /// Atomic multi-page write (paper §1, advantage iv): either every page of
  /// the batch becomes visible or none does, with no journaling overhead —
  /// out-of-place updates plus a batch stamp in the OOB metadata suffice.
  Status WriteAtomic(const std::vector<ftl::OutOfPlaceMapper::BatchPage>& pages,
                     SimTime issue, uint32_t object_id, SimTime* complete) {
    return mapper_->WriteAtomicBatch(pages, issue, flash::OpOrigin::kHost,
                                     object_id, complete);
  }

  bool IsMapped(uint64_t rlpn) const { return mapper_->IsMapped(rlpn); }

  // --- Extent allocation (tablespaces draw space from the region) ---

  /// Allocate a contiguous run of `pages` logical pages; returns the first
  /// logical page number. First-fit over the free span list.
  Result<uint64_t> AllocateExtent(uint64_t pages);

  /// Return an extent to the region; pages are trimmed.
  Status FreeExtent(uint64_t start, uint64_t pages);

  /// Logical pages not yet allocated to any extent.
  uint64_t UnallocatedPages() const;

  // --- Wear & maintenance ---

  double AvgEraseCount() const { return mapper_->AvgEraseCount(); }
  /// Busy time accumulated by the region's dies (FlashDevice::DieBusyTime
  /// summed over dies()); divide by dies().size() for busy time per die.
  SimTime DieBusyTime() const;
  /// Cross-check the region's translation state (bitmaps, candidate
  /// buckets, free pools) against the device; O(physical pages).
  Status VerifyIntegrity() const { return mapper_->VerifyIntegrity(); }
  const ftl::MapperStats& stats() const { return mapper_->stats(); }
  ftl::OutOfPlaceMapper& mapper() { return *mapper_; }
  const ftl::OutOfPlaceMapper& mapper() const { return *mapper_; }

  /// Die-set reshaping used by global wear leveling.
  Status RemoveDie(flash::DieId die, SimTime issue) {
    return mapper_->RemoveDie(die, issue);
  }
  Status AddDie(flash::DieId die) { return mapper_->AddDie(die); }

 private:
  /// Free logical span [start, start+pages).
  struct Span {
    uint64_t start;
    uint64_t pages;
  };

  RegionId id_;
  RegionOptions options_;
  flash::FlashDevice* device_;
  std::unique_ptr<ftl::OutOfPlaceMapper> mapper_;
  /// Guards the extent allocator below. Page I/O needs no region lock — it
  /// forwards straight to the mapper, which has its own latch. Ranked
  /// kBackendAlloc: FreeExtent trims through the mapper while holding it.
  mutable Mutex alloc_mu_{LockRank::kBackendAlloc};
  /// Sorted by start, coalesced.
  std::vector<Span> free_spans_ GUARDED_BY(alloc_mu_);
};

/// Compute the logical page count a region of `dies` dies exports under
/// `options` (respecting MAX_SIZE and the GC reserve). NoSpace if MAX_SIZE
/// exceeds what the die set can safely back.
Result<uint64_t> RegionLogicalPages(const flash::FlashGeometry& geometry,
                                    const RegionOptions& options,
                                    size_t die_count);

}  // namespace noftl::region
