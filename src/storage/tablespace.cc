#include "storage/tablespace.h"

#include <cassert>

namespace noftl::storage {

Tablespace::Tablespace(uint32_t id, const TablespaceOptions& options,
                       SpaceProvider* space)
    : id_(id), options_(options), space_(space) {
  assert(options_.extent_pages > 0);
}

Result<uint64_t> Tablespace::Resolve(uint64_t page_no) const {
  if (page_no >= page_owner_.size()) {
    return Status::OutOfRange("page beyond tablespace");
  }
  const uint64_t extent = page_no / options_.extent_pages;
  const uint64_t offset = page_no % options_.extent_pages;
  return extent_base_[extent] + offset;
}

Result<uint64_t> Tablespace::AllocatePage(uint32_t object_id) {
  WriterLock lock(meta_mu_);
  if (!free_pages_.empty()) {
    const uint64_t page_no = free_pages_.back();
    free_pages_.pop_back();
    page_owner_[page_no] = object_id;
    return page_no;
  }
  const uint64_t page_no = page_owner_.size();
  const uint64_t extent = page_no / options_.extent_pages;
  if (extent == extent_base_.size()) {
    // The allocating object's id rides along as the placement hint: a
    // partitioned provider (shard router) can pin the object's extents to
    // one partition; single-device providers ignore it.
    auto base = space_->AllocateExtentHinted(options_.extent_pages, object_id);
    if (!base.ok()) return base.status();
    extent_base_.push_back(*base);
  }
  page_owner_.push_back(object_id);
  return page_no;
}

Status Tablespace::FreePage(uint64_t page_no) {
  WriterLock lock(meta_mu_);
  auto lpn = Resolve(page_no);
  if (!lpn.ok()) return lpn.status();
  // The trim runs under the exclusive hold so no concurrent allocator can
  // hand the page out before it is free-listed; trims are rare (drops).
  NOFTL_RETURN_IF_ERROR(space_->TrimPage(*lpn));
  page_owner_[page_no] = 0;
  free_pages_.push_back(page_no);
  return Status::OK();
}

Status Tablespace::ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                               SimTime* complete, uint64_t read_seq) {
  uint64_t lpn = 0;
  {
    ReaderLock lock(meta_mu_);
    auto r = Resolve(page_no);
    if (!r.ok()) return r.status();
    lpn = *r;
    if (io_stats_ != nullptr) io_stats_->RecordRead(page_owner_[page_no]);
  }
  return space_->ReadPage(lpn, issue, data, complete, read_seq);
}

Status Tablespace::WritePageRaw(uint64_t page_no, SimTime issue,
                                const char* data, SimTime* complete) {
  uint64_t lpn = 0;
  uint32_t object = 0;
  {
    ReaderLock lock(meta_mu_);
    auto r = Resolve(page_no);
    if (!r.ok()) return r.status();
    lpn = *r;
    object = page_owner_[page_no];
    if (io_stats_ != nullptr) io_stats_->RecordWrite(object);
  }
  return space_->WritePage(lpn, issue, data, object, complete);
}

Status Tablespace::SubmitReads(buffer::PageReadReq* reqs, size_t count,
                               SimTime issue, buffer::PageIoTicket* ticket) {
  // Resolve every page up front and cross the provider boundary once; pages
  // that fail to resolve retire immediately in their slots, the rest stay
  // in flight until WaitBatch. The IoBatch must not move once submitted
  // (the provider holds pointers into it), so it is built in its final
  // PendingBatch home before SubmitBatch runs.
  // Map nodes are address-stable, so `p` stays valid after pending_mu_ is
  // dropped; nobody else can reach this ticket until the caller sees it.
  PendingBatch* p = nullptr;
  {
    MutexLock lock(pending_mu_);
    *ticket = next_ticket_++;
    p = &pending_[*ticket];
  }
  p->issue = issue;
  {
    ReaderLock lock(meta_mu_);
    for (size_t i = 0; i < count; i++) {
      auto lpn = Resolve(reqs[i].page_no);
      if (!lpn.ok()) {
        reqs[i].status = lpn.status();
        continue;
      }
      if (io_stats_ != nullptr) {
        io_stats_->RecordRead(page_owner_[reqs[i].page_no]);
      }
      p->batch.AddRead(*lpn, reqs[i].buf).read_seq = reqs[i].read_seq;
      p->read_targets.push_back(&reqs[i]);
    }
  }
  if (p->batch.empty()) return Status::OK();
  Status s = space_->SubmitBatch(&p->batch, issue, &p->provider_ticket);
  if (!s.ok()) {
    MutexLock lock(pending_mu_);
    pending_.erase(*ticket);
    *ticket = 0;
    return s;
  }
  return Status::OK();
}

Status Tablespace::SubmitWrites(buffer::PageWriteReq* reqs, size_t count,
                                SimTime issue, buffer::PageIoTicket* ticket) {
  PendingBatch* p = nullptr;
  {
    MutexLock lock(pending_mu_);
    *ticket = next_ticket_++;
    p = &pending_[*ticket];
  }
  p->issue = issue;
  {
    ReaderLock lock(meta_mu_);
    for (size_t i = 0; i < count; i++) {
      auto lpn = Resolve(reqs[i].page_no);
      if (!lpn.ok()) {
        reqs[i].status = lpn.status();
        continue;
      }
      if (io_stats_ != nullptr) {
        io_stats_->RecordWrite(page_owner_[reqs[i].page_no]);
      }
      p->batch.AddWrite(*lpn, reqs[i].data, page_owner_[reqs[i].page_no]);
      p->write_targets.push_back(&reqs[i]);
    }
  }
  if (p->batch.empty()) return Status::OK();
  Status s = space_->SubmitBatch(&p->batch, issue, &p->provider_ticket);
  if (!s.ok()) {
    MutexLock lock(pending_mu_);
    pending_.erase(*ticket);
    *ticket = 0;
    return s;
  }
  return Status::OK();
}

Status Tablespace::WaitBatch(buffer::PageIoTicket ticket, SimTime* complete) {
  // Detach the entry under the lock (map node extraction keeps the IoBatch
  // address stable), then reap with the lock released: the provider wait
  // takes the backend latches below this one, and a concurrent wait on the
  // same ticket must reap exactly once.
  std::map<buffer::PageIoTicket, PendingBatch>::node_type node;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(ticket);
    if (it == pending_.end()) return Status::OK();
    node = pending_.extract(it);
  }
  PendingBatch& p = node.mapped();
  SimTime done = p.issue;
  if (p.provider_ticket != 0) {
    NOFTL_RETURN_IF_ERROR(space_->WaitBatch(p.provider_ticket, &done));
  }
  for (size_t k = 0; k < p.read_targets.size(); k++) {
    p.read_targets[k]->status = p.batch[k].status;
    p.read_targets[k]->complete = p.batch[k].complete;
  }
  for (size_t k = 0; k < p.write_targets.size(); k++) {
    p.write_targets[k]->status = p.batch[k].status;
    p.write_targets[k]->complete = p.batch[k].complete;
  }
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

uint64_t Tablespace::LivePages() const {
  // Every allocated page is either free-listed or owned by some object
  // (FreePage pushes exactly the pages it un-owns).
  ReaderLock lock(meta_mu_);
  return page_owner_.size() - free_pages_.size();
}

Status Tablespace::ReleaseExtents() {
  WriterLock lock(meta_mu_);
  if (page_owner_.size() - free_pages_.size() != 0) {
    return Status::Busy("tablespace " + options_.name + " still holds pages");
  }
  for (uint64_t base : extent_base_) {
    NOFTL_RETURN_IF_ERROR(space_->FreeExtent(base, options_.extent_pages));
  }
  extent_base_.clear();
  page_owner_.clear();
  free_pages_.clear();
  return Status::OK();
}

std::map<uint32_t, uint64_t> Tablespace::PageCountByObject() const {
  ReaderLock lock(meta_mu_);
  std::map<uint32_t, uint64_t> out;
  for (uint64_t page_no = 0; page_no < page_owner_.size(); page_no++) {
    out[page_owner_[page_no]]++;
  }
  // Free-listed pages are owned by object 0; drop that bucket.
  for (uint64_t free_page : free_pages_) {
    (void)free_page;
    if (out.count(0) != 0 && --out[0] == 0) out.erase(0);
  }
  return out;
}

}  // namespace noftl::storage
