// SpaceProvider — the storage manager's view of "somewhere pages live".
//
// Two implementations mirror the paper's two architectures:
//   * RegionSpace  — NoFTL: a region drives placement directly (object ids
//     reach the flash OOB metadata, GC is object-aware by construction);
//   * FtlSpace     — traditional SSD: a linear LBA space behind a block
//     device; object identity is invisible below this line.
//
// The I/O surface is an event-driven submission/completion queue: SubmitBatch
// hands N requests to the backend at one issue time and returns a ticket
// immediately; requests on distinct dies overlap, the batch retires at the
// max over dies, and the caller reaps with WaitBatch — the only reap path —
// so whatever it computes in between overlaps with the in-flight flash work
// (see storage/io_batch.h). RunBatch is the call-and-resolve convenience,
// and the single-page calls are thin wrappers over a one-element RunBatch,
// kept so existing callers stay source-compatible while hot paths move to
// submit-early/reap-late.
#pragma once

#include <cstdint>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "ftl/page_ftl.h"
#include "noftl/region.h"
#include "storage/io_batch.h"

namespace noftl::storage {

class SpaceProvider {
 public:
  virtual ~SpaceProvider() = default;

  virtual uint32_t page_size() const = 0;

  /// Allocate / free a contiguous run of logical pages.
  virtual Result<uint64_t> AllocateExtent(uint64_t pages) = 0;
  virtual Status FreeExtent(uint64_t start, uint64_t pages) = 0;

  /// Placement-hinted allocation: backends that partition the space across
  /// devices (the shard router) use `hint` — by default the allocating
  /// object's id, flowed down from Tablespace::AllocatePage — to choose a
  /// partition. Single-device providers ignore it.
  virtual Result<uint64_t> AllocateExtentHinted(uint64_t pages,
                                                uint64_t hint) {
    (void)hint;
    return AllocateExtent(pages);
  }

  /// Enqueue a batch of reads/writes/trims at `issue` and return a ticket
  /// immediately; the per-request completion slots are filled only when the
  /// ticket is reaped. The returned status covers the submission itself
  /// (malformed or failed-atomic batches, which deliver their slots
  /// immediately and yield no ticket); per-request failures live in the
  /// slots. The batch object must stay alive and unmoved until reaped.
  virtual Status SubmitBatch(IoBatch* batch, SimTime issue,
                             IoTicket* ticket) = 0;

  /// Reap all requests of `ticket`, filling their completion slots;
  /// `*complete` (if non-null) receives the batch finish time: the latest
  /// completion among its successful requests, and at least the issue time
  /// (max(issue, IoBatch::MaxComplete())). No-op that returns OK for an
  /// unknown or already-reaped ticket. Exactly one caller reaps a ticket.
  virtual Status WaitBatch(IoTicket ticket, SimTime* complete) = 0;

  /// Call-and-resolve convenience: submit + wait in one step.
  Status RunBatch(IoBatch* batch, SimTime issue, SimTime* complete) {
    IoTicket ticket = 0;
    NOFTL_RETURN_IF_ERROR(SubmitBatch(batch, issue, &ticket));
    return WaitBatch(ticket, complete);
  }

  // --- Single-page convenience wrappers (one-element batches) ---

  Status ReadPage(uint64_t lpn, SimTime issue, char* data, SimTime* complete,
                  uint64_t read_seq = 0) {
    IoBatch batch;
    batch.AddRead(lpn, data).read_seq = read_seq;
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, issue, nullptr));
    const IoRequest& r = batch[0];
    if (r.status.ok() && complete != nullptr) *complete = r.complete;
    return r.status;
  }

  Status WritePage(uint64_t lpn, SimTime issue, const char* data,
                   uint32_t object_id, SimTime* complete) {
    IoBatch batch;
    batch.AddWrite(lpn, data, object_id);
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, issue, nullptr));
    const IoRequest& r = batch[0];
    if (r.status.ok() && complete != nullptr) *complete = r.complete;
    return r.status;
  }

  Status TrimPage(uint64_t lpn) {
    IoBatch batch;
    batch.AddTrim(lpn);
    NOFTL_RETURN_IF_ERROR(RunBatch(&batch, /*issue=*/0, nullptr));
    return batch[0].status;
  }
};

/// NoFTL path: forwards to a region.
class RegionSpace : public SpaceProvider {
 public:
  explicit RegionSpace(region::Region* region) : region_(region) {}

  uint32_t page_size() const override { return region_->page_size(); }
  Result<uint64_t> AllocateExtent(uint64_t pages) override {
    return region_->AllocateExtent(pages);
  }
  Status FreeExtent(uint64_t start, uint64_t pages) override {
    return region_->FreeExtent(start, pages);
  }
  Status SubmitBatch(IoBatch* batch, SimTime issue,
                     IoTicket* ticket) override {
    return region_->SubmitBatch(batch, issue, ticket);
  }
  Status WaitBatch(IoTicket ticket, SimTime* complete) override {
    return region_->WaitBatch(ticket, complete);
  }

  region::Region* region() { return region_; }

 private:
  region::Region* region_;
};

/// Traditional path: an extent allocator over the FTL's LBA space. The
/// object id is discarded — an FTL cannot see it, which is the paper's
/// point. Freed extents enter a coalescing free-span list and are reused
/// first-fit before the high-water mark advances, so create/drop cycles
/// recycle the LBA space instead of leaking it.
class FtlSpace : public SpaceProvider {
 public:
  explicit FtlSpace(ftl::PageMappingFtl* ftl) : ftl_(ftl) {}

  uint32_t page_size() const override { return ftl_->sector_size(); }

  Result<uint64_t> AllocateExtent(uint64_t pages) override {
    if (pages == 0) return Status::InvalidArgument("empty extent");
    MutexLock lock(alloc_mu_);
    // First-fit over previously freed (trimmed) spans.
    for (auto it = free_spans_.begin(); it != free_spans_.end(); ++it) {
      if (it->pages >= pages) {
        const uint64_t start = it->start;
        it->start += pages;
        it->pages -= pages;
        if (it->pages == 0) free_spans_.erase(it);
        return start;
      }
    }
    if (next_lba_ + pages > ftl_->sector_count()) {
      return Status::NoSpace("FTL LBA space exhausted");
    }
    const uint64_t start = next_lba_;
    next_lba_ += pages;
    return start;
  }

  Status FreeExtent(uint64_t start, uint64_t pages) override {
    for (uint64_t lba = start; lba < start + pages; lba++) {
      NOFTL_RETURN_IF_ERROR(ftl_->Trim(lba));
    }
    MutexLock lock(alloc_mu_);
    // Insert the span sorted by start and coalesce with its neighbours so
    // repeated create/drop cycles can always satisfy a same-sized (or
    // larger, after coalescing) allocation again.
    auto it = free_spans_.begin();
    while (it != free_spans_.end() && it->start < start) ++it;
    it = free_spans_.insert(it, {start, pages});
    if (it != free_spans_.begin()) {
      auto prev = it - 1;
      if (prev->start + prev->pages == it->start) {
        prev->pages += it->pages;
        it = free_spans_.erase(it);
        --it;
      }
    }
    if (it + 1 != free_spans_.end() && it->start + it->pages == (it + 1)->start) {
      it->pages += (it + 1)->pages;
      free_spans_.erase(it + 1);
    }
    return Status::OK();
  }

  /// Free spans currently available for reuse (test/diagnostic hook).
  uint64_t FreeSpanPages() const {
    MutexLock lock(alloc_mu_);
    uint64_t total = 0;
    for (const Span& s : free_spans_) total += s.pages;
    return total;
  }

  Status SubmitBatch(IoBatch* batch, SimTime issue,
                     IoTicket* ticket) override {
    return ftl_->SubmitBatch(batch, issue, ticket);
  }
  Status WaitBatch(IoTicket ticket, SimTime* complete) override {
    return ftl_->WaitBatch(ticket, complete);
  }

 private:
  /// Free LBA span [start, start+pages), sorted by start, coalesced.
  struct Span {
    uint64_t start;
    uint64_t pages;
  };

  ftl::PageMappingFtl* ftl_;
  /// Guards the LBA allocator (next_lba_, free_spans_); page I/O goes
  /// straight to the FTL's mapper latch. Ranked kBackendAlloc like the
  /// region allocator it mirrors (FreeExtent trims before locking here,
  /// but the rank keeps the two paths interchangeable).
  mutable Mutex alloc_mu_{LockRank::kBackendAlloc};
  uint64_t next_lba_ GUARDED_BY(alloc_mu_) = 0;
  std::vector<Span> free_spans_ GUARDED_BY(alloc_mu_);
};

}  // namespace noftl::storage
