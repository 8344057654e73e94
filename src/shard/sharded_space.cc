#include "shard/sharded_space.h"

#include <algorithm>
#include <cassert>

namespace noftl::shard {

using storage::IoBatch;
using storage::IoRequest;
using storage::IoTicket;

namespace {
// Per-thread placement-hint overrides, keyed by space instance. Thread-local
// so concurrent loaders/workers can each pin their own allocations without a
// race; keyed by pointer so multiple spaces coexist. Entries are erased on
// Clear; a destroyed space leaves at most a stale (never-read-as-alive)
// pointer key behind, which a same-address successor clears in its ctor.
thread_local std::map<const ShardedSpace*, uint64_t> t_hint_override;
}  // namespace

void ShardedSpace::SetPlacementHint(uint64_t key) {
  t_hint_override[this] = key;
}
void ShardedSpace::ClearPlacementHint() { t_hint_override.erase(this); }

ShardedSpace::ShardedSpace(std::vector<storage::SpaceProvider*> shards,
                           ShardPlacement placement)
    : shards_(std::move(shards)), placement_(placement) {
  assert(!shards_.empty());
  for (const auto* s : shards_) {
    (void)s;
    assert(s != nullptr && s->page_size() == shards_[0]->page_size());
  }
  degraded_.assign(shards_.size(), 0);
  stats_.extents_per_shard.assign(shards_.size(), 0);
  stats_.requests_per_shard.assign(shards_.size(), 0);
  t_hint_override.erase(this);
}

uint32_t ShardedSpace::page_size() const { return shards_[0]->page_size(); }

size_t ShardedSpace::PickShard(uint64_t key) const {
  switch (placement_) {
    case ShardPlacement::kStripe:
      return stripe_cursor_ % shards_.size();
    case ShardPlacement::kByKey: {
      const auto it = t_hint_override.find(this);
      const uint64_t k = it != t_hint_override.end() ? it->second : key;
      return static_cast<size_t>(k % shards_.size());
    }
  }
  return 0;
}

Result<uint64_t> ShardedSpace::AllocateExtentHinted(uint64_t pages,
                                                    uint64_t hint) {
  // Serialize the cursor bump and the probe/spill sequence; the sub-shard
  // allocators called below have their own locks, never this one.
  MutexLock alloc_lock(alloc_mu_);
  const size_t preferred = PickShard(hint);
  if (placement_ == ShardPlacement::kStripe) stripe_cursor_++;
  // Placement is a performance decision, not a correctness one: a full shard
  // spills its extent to the next shard with room.
  Status first_error;
  for (size_t probe = 0; probe < shards_.size(); probe++) {
    const size_t s = (preferred + probe) % shards_.size();
    if (degraded_[s]) {
      // A read-only shard takes no new extents; spill like a full shard.
      if (first_error.ok()) {
        first_error = Status::ReadOnly("shard " + std::to_string(s) +
                                       " degraded to read-only");
      }
      continue;
    }
    auto local = shards_[s]->AllocateExtentHinted(pages, hint);
    if (!local.ok()) {
      if (first_error.ok()) first_error = local.status();
      continue;
    }
    assert(*local <= kLocalMask && *local + pages <= kLocalMask + 1);
    stats_.extents_allocated++;
    stats_.extents_per_shard[s]++;
    if (probe != 0) stats_.extent_spills++;
    return Encode(s, *local);
  }
  return first_error;
}

Status ShardedSpace::FreeExtent(uint64_t start, uint64_t pages) {
  const size_t s = ShardOf(start);
  if (s >= shards_.size()) {
    return Status::OutOfRange("extent start beyond shard count");
  }
  return shards_[s]->FreeExtent(LocalOf(start), pages);
}

Status ShardedSpace::SubmitBatch(IoBatch* batch, SimTime issue,
                                 IoTicket* ticket) {
  if (ticket == nullptr) {
    // No ticket slot = the caller can never reap: degrade to call-and-resolve
    // (mirrors the mapper's null-ticket contract).
    IoTicket t = 0;
    NOFTL_RETURN_IF_ERROR(SubmitBatch(batch, issue, &t));
    return WaitBatch(t, nullptr);
  }
  *ticket = 0;

  // Classify the batch: which shards does it touch?
  bool all_shard0 = true;
  size_t first_shard = 0;
  bool cross_shard = false;
  bool have_any = false;
  for (const IoRequest& r : batch->requests()) {
    const size_t s = ShardOf(r.lpn);
    if (s >= shards_.size()) {
      batch->FailAll(Status::OutOfRange("lpn beyond shard count"));
      return Status::OutOfRange("lpn beyond shard count");
    }
    if (!have_any) {
      first_shard = s;
      have_any = true;
    } else if (s != first_shard) {
      cross_shard = true;
    }
    if (s != 0) all_shard0 = false;
  }

  if (batch->atomic() && cross_shard) {
    // The paper's atomic-write mechanism is one mapper stamping one batch id
    // into its OOB metadata; there is no sound all-or-nothing meaning across
    // independent shards without a coordination protocol. Reject cleanly:
    // every slot fails now and no ticket exists (rejected-submission
    // contract).
    stats_.rejected_cross_shard_atomics++;
    const Status s =
        Status::InvalidArgument("atomic batch spans shards; scope it to one");
    batch->FailAll(s);
    return s;
  }

  // Graceful degradation: a shard past its hard-fault budget still serves
  // reads (data stays salvageable) but refuses mutations. Blocked requests
  // fail in place with Status::ReadOnly — slots filled, callbacks fired —
  // and the rest of the batch proceeds. An atomic batch is all-or-nothing,
  // so one blocked write rejects the whole submission.
  bool any_blocked = false;
  for (const IoRequest& r : batch->requests()) {
    if (r.op != storage::IoOp::kRead && degraded_[ShardOf(r.lpn)]) {
      any_blocked = true;
      break;
    }
  }
  if (any_blocked && batch->atomic()) {
    stats_.degraded_rejected_writes += batch->size();
    const Status s =
        Status::ReadOnly("atomic batch targets a degraded read-only shard");
    batch->FailAll(s);
    return s;
  }
  if (any_blocked) {
    for (IoRequest& r : batch->requests()) {
      const size_t s = ShardOf(r.lpn);
      if (r.op == storage::IoOp::kRead || !degraded_[s]) continue;
      stats_.degraded_rejected_writes++;
      r.status = Status::ReadOnly("shard " + std::to_string(s) +
                                  " degraded to read-only");
      r.complete = issue;
      r.done = true;
      if (r.on_complete) r.on_complete(r);
    }
  }

  auto merged = std::make_unique<Merged>();
  merged->id = next_ticket_++;
  merged->issue = issue;
  merged->parent = batch;

  if (all_shard0 && !any_blocked) {
    // Passthrough: shard-0 local lpns equal the encoded lpns, so the
    // caller's batch goes down untouched — a 1-shard ShardedSpace is
    // operation-for-operation the unsharded stack.
    merged->passthrough = true;
    Status s =
        shards_[0]->SubmitBatch(batch, issue, &merged->passthrough_ticket);
    if (!s.ok()) return s;  // slots already delivered by the backend
    stats_.passthrough_batches++;
    stats_.requests_per_shard[0] += batch->size();
    *ticket = merged->id;
    {
      MutexLock lock(mu_);
      pending_[merged->id] = std::move(merged);
    }
    return Status::OK();
  }

  // Scatter: mirror each request into its shard's sub-batch (same relative
  // order, so same-shard FIFO is preserved), with an on_complete that copies
  // the completion slots back into the caller's request and fires its
  // callback at the moment the sub-request retires.
  std::vector<SubBatch*> by_shard(shards_.size(), nullptr);
  for (IoRequest& r : batch->requests()) {
    if (r.done) continue;  // already failed above (degraded shard)
    const size_t s = ShardOf(r.lpn);
    if (by_shard[s] == nullptr) {
      merged->subs.push_back(std::make_unique<SubBatch>());
      merged->subs.back()->shard = s;
      by_shard[s] = merged->subs.back().get();
    }
    IoBatch& sub = by_shard[s]->batch;
    const uint64_t local = LocalOf(r.lpn);
    IoRequest* mirror = nullptr;
    switch (r.op) {
      case storage::IoOp::kRead:
        mirror = &sub.AddRead(local, r.read_buf);
        mirror->read_seq = r.read_seq;
        break;
      case storage::IoOp::kWrite:
        mirror = &sub.AddWrite(local, r.write_data, r.object_id);
        break;
      case storage::IoOp::kTrim:
        mirror = &sub.AddTrim(local);
        break;
    }
    IoRequest* parent = &r;
    Merged* owner = merged.get();
    mirror->on_complete = [parent, owner](const IoRequest& done_req) {
      parent->status = done_req.status;
      parent->complete = done_req.complete;
      parent->done = true;
      if (parent->on_complete) parent->on_complete(*parent);
      owner->callbacks_returned.fetch_add(1, std::memory_order_release);
    };
    merged->mirrors++;
    stats_.requests_per_shard[s]++;
    stats_.scatter_requests++;
  }
  if (batch->atomic()) {
    assert(merged->subs.size() == 1);
    merged->subs[0]->batch.set_atomic(true);
  }

  // Submit every sub-batch before waiting on any; the shards' own queues
  // overlap from here on. A rejected sub-submission has already delivered
  // its slots (through the mirrors' callbacks); deliver everything else too
  // and yield no ticket, per the rejected-submission contract.
  Status submit_error;
  size_t submitted = 0;
  for (auto& sub : merged->subs) {
    if (!submit_error.ok()) {
      sub->batch.FailAll(submit_error);
      continue;
    }
    Status s = shards_[sub->shard]->SubmitBatch(&sub->batch, issue,
                                                &sub->ticket);
    if (!s.ok()) {
      submit_error = s;
      continue;
    }
    submitted++;
  }
  if (!submit_error.ok()) {
    for (size_t i = 0; i < submitted; i++) {
      SubBatch& sub = *merged->subs[i];
      (void)shards_[sub.shard]->WaitBatch(sub.ticket, nullptr);
    }
    return submit_error;
  }
  stats_.merged_batches++;
  *ticket = merged->id;
  {
    MutexLock lock(mu_);
    pending_[merged->id] = std::move(merged);
  }
  return Status::OK();
}

Status ShardedSpace::WaitBatch(IoTicket ticket, SimTime* complete) {
  // Detach under the lock before reaping: an on_complete that re-enters this
  // space (new submissions, polls, waits on other tickets) can never dangle
  // this entry, and a concurrent WaitBatch/PollCompletions on another thread
  // can never double-reap it.
  std::unique_ptr<Merged> m;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(ticket);
    if (it == pending_.end()) return Status::OK();  // unknown/already reaped
    m = std::move(it->second);
    pending_.erase(it);
  }

  SimTime done = m->issue;
  if (m->passthrough) {
    NOFTL_RETURN_IF_ERROR(
        shards_[0]->WaitBatch(m->passthrough_ticket, nullptr));
  } else {
    // The merged batch retires at the max over its shards. Sub-batches are
    // reaped in shard order; within a shard the backend delivers requests in
    // submission order, so same-shard FIFO survives the merge.
    for (auto& sub : m->subs) {
      NOFTL_RETURN_IF_ERROR(shards_[sub->shard]->WaitBatch(sub->ticket,
                                                           nullptr));
    }
  }
  // Completion slots are authoritative (a sub-batch may have been drained by
  // an earlier PollCompletions, in which case its WaitBatch was a no-op).
  done = std::max(done, m->parent->MaxComplete());
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

size_t ShardedSpace::PollCompletions(SimTime until) {
  // Poll the shards with mu_ released: callbacks fire here and may re-enter
  // this space (submit, wait, even poll again).
  size_t retired = 0;
  for (auto* s : shards_) retired += s->PollCompletions(until);
  // Release merged batches whose every callback has returned (another
  // thread may still be inside one). Extract them under the lock, destroy
  // them outside it (the Merged dtor frees the sub-batches but fires no
  // callbacks; keeping destruction out of the critical section is still
  // cheaper for concurrent submitters).
  std::vector<std::unique_ptr<Merged>> drained;
  {
    MutexLock lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (Delivered(*it->second)) {
        drained.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return retired;
}

bool ShardedSpace::Delivered(const Merged& m) const {
  if (m.passthrough) return m.parent->AllDone();
  return m.callbacks_returned.load() == m.mirrors;
}

}  // namespace noftl::shard
