#include "noftl/region.h"

#include <algorithm>
#include <cassert>

#include "ftl/checkpoint.h"

namespace noftl::region {

Result<uint64_t> RegionLogicalPages(const flash::FlashGeometry& geometry,
                                    const RegionOptions& options,
                                    size_t die_count) {
  // GC headroom plus the checkpoint slots reserved at the top of each die.
  const uint64_t reserve_blocks =
      options.mapper.gc_high_watermark + 2 +
      ftl::CheckpointStore::ReservedBlocksPerDie(
          geometry, options.mapper.checkpoint_slots);
  if (geometry.blocks_per_die <= reserve_blocks) {
    return Status::InvalidArgument(
        "die too small for GC + checkpoint reserve");
  }
  const uint64_t usable = die_count *
                          (geometry.blocks_per_die - reserve_blocks) *
                          geometry.pages_per_block;
  if (options.max_size_bytes == 0) return usable;
  const uint64_t requested = options.max_size_bytes / geometry.page_size;
  if (requested > usable) {
    return Status::NoSpace("MAX_SIZE exceeds usable capacity of " +
                           std::to_string(die_count) + " dies");
  }
  return requested;
}

Region::Region(RegionId id, const RegionOptions& options,
               flash::FlashDevice* device, std::vector<flash::DieId> dies)
    : id_(id), options_(options), device_(device) {
  auto logical = RegionLogicalPages(device->geometry(), options, dies.size());
  assert(logical.ok());
  mapper_ = std::make_unique<ftl::OutOfPlaceMapper>(
      device, std::move(dies), *logical, options.mapper);
  free_spans_.push_back({0, mapper_->logical_pages()});
}

uint32_t Region::page_size() const { return device_->geometry().page_size; }

SimTime Region::DieBusyTime() const {
  SimTime busy = 0;
  for (flash::DieId die : dies()) busy += device_->DieBusyTime(die);
  return busy;
}

Status Region::ReadPage(uint64_t rlpn, SimTime issue, char* data,
                        SimTime* complete) {
  return mapper_->Read(rlpn, issue, flash::OpOrigin::kHost, data, complete);
}

Status Region::WritePage(uint64_t rlpn, SimTime issue, const char* data,
                         uint32_t object_id, SimTime* complete) {
  return mapper_->Write(rlpn, issue, flash::OpOrigin::kHost, data, object_id,
                        complete);
}

Status Region::TrimPage(uint64_t rlpn) { return mapper_->Trim(rlpn); }

Status Region::SubmitBatch(storage::IoBatch* batch, SimTime issue,
                           storage::IoTicket* ticket) {
  if (ticket != nullptr) *ticket = 0;
  if (batch->atomic()) {
    // A rejected atomic submission delivers its slots now (IoBatch::FailAll
    // documents the contract; see also space_provider.h).
    auto reject = [batch](Status s) {
      batch->FailAll(s);
      return s;
    };
    // All-or-nothing installation through the atomic-batch machinery. The
    // atomic path requires a pure write batch; a mixed batch has no sound
    // all-or-nothing meaning (reads/trims cannot be rolled back into it).
    std::vector<ftl::OutOfPlaceMapper::BatchPage> pages;
    pages.reserve(batch->size());
    uint32_t object_id = 0;
    for (const storage::IoRequest& r : batch->requests()) {
      if (r.op != storage::IoOp::kWrite) {
        return reject(
            Status::InvalidArgument("atomic batch must be writes only"));
      }
      // The atomic machinery stamps one object id on the whole batch; a
      // mixed-object batch would silently mis-attribute OOB ownership.
      if (!pages.empty() && r.object_id != object_id) {
        return reject(Status::InvalidArgument("atomic batch spans object ids"));
      }
      pages.push_back({r.lpn, r.write_data});
      object_id = r.object_id;
    }
    SimTime done = issue;
    Status s = mapper_->WriteAtomicBatch(pages, issue, flash::OpOrigin::kHost,
                                         object_id, &done);
    if (!s.ok()) return reject(s);
    const storage::IoTicket t = mapper_->EnqueueResolved(
        batch->requests().data(), batch->size(), issue, s, done);
    // No ticket slot = the caller can never reap: resolve now (see
    // OutOfPlaceMapper::SubmitBatch).
    if (ticket == nullptr) return mapper_->WaitBatch(t, nullptr);
    *ticket = t;
    return Status::OK();
  }
  return mapper_->SubmitBatch(batch->requests().data(), batch->size(), issue,
                              flash::OpOrigin::kHost, ticket);
}

Result<uint64_t> Region::AllocateExtent(uint64_t pages) {
  MutexLock lock(alloc_mu_);
  if (pages == 0) return Status::InvalidArgument("empty extent");
  for (auto it = free_spans_.begin(); it != free_spans_.end(); ++it) {
    if (it->pages >= pages) {
      const uint64_t start = it->start;
      it->start += pages;
      it->pages -= pages;
      if (it->pages == 0) free_spans_.erase(it);
      return start;
    }
  }
  return Status::NoSpace("region " + options_.name +
                         " has no extent of " + std::to_string(pages) +
                         " pages");
}

Status Region::FreeExtent(uint64_t start, uint64_t pages) {
  MutexLock lock(alloc_mu_);
  if (start + pages > mapper_->logical_pages()) {
    return Status::OutOfRange("extent beyond region");
  }
  for (uint64_t p = start; p < start + pages; p++) {
    NOFTL_RETURN_IF_ERROR(mapper_->Trim(p));
  }
  // Insert sorted and coalesce with neighbours.
  auto it = std::lower_bound(
      free_spans_.begin(), free_spans_.end(), start,
      [](const Span& s, uint64_t v) { return s.start < v; });
  it = free_spans_.insert(it, {start, pages});
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != free_spans_.end() && it->start + it->pages == next->start) {
    it->pages += next->pages;
    free_spans_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_spans_.begin()) {
    auto prev = std::prev(it);
    if (prev->start + prev->pages == it->start) {
      prev->pages += it->pages;
      free_spans_.erase(it);
    }
  }
  return Status::OK();
}

uint64_t Region::UnallocatedPages() const {
  MutexLock lock(alloc_mu_);
  uint64_t total = 0;
  for (const auto& s : free_spans_) total += s.pages;
  return total;
}

}  // namespace noftl::region
