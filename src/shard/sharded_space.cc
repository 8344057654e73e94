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

  // Classify the batch: which shards does it touch, and does it mutate?
  bool all_shard0 = true;
  size_t first_shard = 0;
  bool cross_shard = false;
  bool have_any = false;
  bool mutates = false;
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
    if (r.op != storage::IoOp::kRead) mutates = true;
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

  if (all_shard0 && !(mutates && degraded_[0])) {
    // Passthrough: shard-0 local lpns equal the encoded lpns, so the
    // caller's batch goes down untouched — a 1-shard ShardedSpace is
    // operation-for-operation the unsharded stack. The returned ticket is
    // shard 0's own, tagged: nothing is allocated and no lock is taken, and
    // the one read of shard 0's degraded flag serves the whole submission.
    IoTicket shard_ticket = 0;
    Status s = shards_[0]->SubmitBatch(batch, issue, &shard_ticket);
    if (!s.ok()) return s;  // slots already delivered by the backend
    assert((shard_ticket & kPassthroughTag) == 0);
    stats_.passthrough_batches++;
    stats_.requests_per_shard[0] += batch->size();
    *ticket = shard_ticket | kPassthroughTag;
    return Status::OK();
  }

  Merged merged;
  merged.issue = issue;
  merged.parent = batch;

  // One read of the degraded flags serves the rest of the submission: the
  // router may degrade a shard concurrently, and the atomic-batch check and
  // the scatter must agree on which writes are blocked.
  std::vector<uint8_t> degraded(shards_.size());
  for (size_t s = 0; s < shards_.size(); s++) degraded[s] = degraded_[s];

  // Graceful degradation: a shard past its hard-fault budget still serves
  // reads (data stays salvageable) but refuses mutations. Blocked requests
  // fail in place with Status::ReadOnly (slots filled below, at scatter) and
  // the rest of the batch proceeds. An atomic batch is all-or-nothing, so
  // one blocked write rejects the whole submission.
  if (batch->atomic()) {
    for (const IoRequest& r : batch->requests()) {
      if (r.op != storage::IoOp::kRead && degraded[ShardOf(r.lpn)]) {
        stats_.degraded_rejected_writes += batch->size();
        const Status s =
            Status::ReadOnly("atomic batch targets a degraded read-only shard");
        batch->FailAll(s);
        return s;
      }
    }
  }

  // Scatter: mirror each request into its shard's sub-batch (same relative
  // order, so same-shard FIFO is preserved) and remember its parent, whose
  // slots the reap fills from the mirror's.
  std::vector<size_t> sub_of(shards_.size(), SIZE_MAX);
  for (IoRequest& r : batch->requests()) {
    const size_t s = ShardOf(r.lpn);
    if (r.op != storage::IoOp::kRead && degraded[s]) {
      stats_.degraded_rejected_writes++;
      r.status = Status::ReadOnly("shard " + std::to_string(s) +
                                  " degraded to read-only");
      r.complete = issue;
      r.done = true;
      continue;
    }
    if (sub_of[s] == SIZE_MAX) {
      sub_of[s] = merged.subs.size();
      merged.subs.emplace_back().shard = s;
    }
    SubBatch& sub = merged.subs[sub_of[s]];
    const uint64_t local = LocalOf(r.lpn);
    switch (r.op) {
      case storage::IoOp::kRead:
        sub.batch.AddRead(local, r.read_buf).read_seq = r.read_seq;
        break;
      case storage::IoOp::kWrite:
        sub.batch.AddWrite(local, r.write_data, r.object_id);
        break;
      case storage::IoOp::kTrim:
        sub.batch.AddTrim(local);
        break;
    }
    sub.parents.push_back(&r);
    stats_.requests_per_shard[s]++;
    stats_.scatter_requests++;
  }
  if (batch->atomic()) {
    assert(merged.subs.size() == 1);
    merged.subs[0].batch.set_atomic(true);
  }

  // Submit every sub-batch before waiting on any; the shards' own queues
  // overlap from here on. A rejected sub-submission yields no ticket: reap
  // what was submitted, deliver every slot (rejected-submission contract)
  // and return the error.
  Status submit_error;
  for (SubBatch& sub : merged.subs) {
    if (!submit_error.ok()) break;
    submit_error =
        shards_[sub.shard]->SubmitBatch(&sub.batch, issue, &sub.ticket);
  }
  if (!submit_error.ok()) {
    for (SubBatch& sub : merged.subs) {
      if (sub.ticket != 0) {
        (void)shards_[sub.shard]->WaitBatch(sub.ticket, nullptr);
      }
      DeliverMirrors(sub, submit_error);
    }
    return submit_error;
  }
  stats_.merged_batches++;
  *ticket = next_ticket_++;
  MutexLock lock(mu_);
  pending_.emplace(*ticket, std::move(merged));
  return Status::OK();
}

void ShardedSpace::DeliverMirrors(const SubBatch& sub, const Status& error) {
  for (size_t i = 0; i < sub.parents.size(); i++) {
    const IoRequest& mirror = sub.batch[i];
    IoRequest* parent = sub.parents[i];
    parent->status = mirror.done ? mirror.status : error;
    parent->complete = mirror.done ? mirror.complete : 0;
    parent->done = true;
  }
}

Status ShardedSpace::WaitBatch(IoTicket ticket, SimTime* complete) {
  if ((ticket & kPassthroughTag) != 0) {
    // Shard 0 reaps its own ticket; its finish time is the same
    // max(issue, MaxComplete()) a merged batch reports (SpaceProvider
    // contract), and an unknown ticket is its no-op too.
    return shards_[0]->WaitBatch(ticket & ~kPassthroughTag, complete);
  }
  // Detach under the lock before reaping, so a concurrent WaitBatch on
  // another thread can never double-reap the entry.
  Merged m;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(ticket);
    if (it == pending_.end()) return Status::OK();  // unknown/already reaped
    m = std::move(it->second);
    pending_.erase(it);
  }

  // The merged batch retires at the max over its shards. Sub-batches are
  // reaped in shard order and each shard delivers its requests in
  // submission order, so same-shard FIFO survives the merge.
  Status first_error;
  for (SubBatch& sub : m.subs) {
    Status s = shards_[sub.shard]->WaitBatch(sub.ticket, nullptr);
    DeliverMirrors(sub, s);
    if (first_error.ok()) first_error = s;
  }
  if (complete != nullptr) {
    *complete = std::max(m.issue, m.parent->MaxComplete());
  }
  return first_error;
}

}  // namespace noftl::shard
