#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace noftl::buffer {

// Default queued PageIo: resolve the run eagerly by looping the single-page
// calls at the same issue time and defer only the delivery. Behaviourally
// identical to a real queued submission of the same requests (the backend
// schedules per-die either way); overridden by Tablespace with a queued
// IoBatch so the whole run crosses the provider boundary once and truly
// stays in flight until the reap.

Status PageIo::SubmitReads(PageReadReq* reqs, size_t count, SimTime issue,
                           PageIoTicket* ticket) {
  SimTime done = issue;
  for (size_t i = 0; i < count; i++) {
    SimTime page_done = issue;
    reqs[i].status = ReadPageRaw(reqs[i].page_no, issue, reqs[i].buf,
                                 &page_done, reqs[i].read_seq);
    if (reqs[i].status.ok()) {
      reqs[i].complete = page_done;
      done = std::max(done, page_done);
    }
  }
  MutexLock lock(fallback_mu_);
  *ticket = next_fallback_ticket_++;
  fallback_done_[*ticket] = done;
  return Status::OK();
}

Status PageIo::SubmitWrites(PageWriteReq* reqs, size_t count, SimTime issue,
                            PageIoTicket* ticket) {
  SimTime done = issue;
  for (size_t i = 0; i < count; i++) {
    SimTime page_done = issue;
    reqs[i].status = WritePageRaw(reqs[i].page_no, issue, reqs[i].data,
                                  &page_done);
    if (reqs[i].status.ok()) {
      reqs[i].complete = page_done;
      done = std::max(done, page_done);
    }
  }
  MutexLock lock(fallback_mu_);
  *ticket = next_fallback_ticket_++;
  fallback_done_[*ticket] = done;
  return Status::OK();
}

Status PageIo::WaitBatch(PageIoTicket ticket, SimTime* complete) {
  MutexLock lock(fallback_mu_);
  auto it = fallback_done_.find(ticket);
  if (it == fallback_done_.end()) return Status::OK();
  if (complete != nullptr) *complete = it->second;
  fallback_done_.erase(it);
  return Status::OK();
}

Status PageIo::ReadPagesRaw(PageReadReq* reqs, size_t count, SimTime issue,
                            SimTime* complete) {
  PageIoTicket ticket = 0;
  NOFTL_RETURN_IF_ERROR(SubmitReads(reqs, count, issue, &ticket));
  SimTime done = issue;
  NOFTL_RETURN_IF_ERROR(WaitBatch(ticket, &done));
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

Status PageIo::WritePagesRaw(PageWriteReq* reqs, size_t count, SimTime issue,
                             SimTime* complete) {
  PageIoTicket ticket = 0;
  NOFTL_RETURN_IF_ERROR(SubmitWrites(reqs, count, issue, &ticket));
  SimTime done = issue;
  NOFTL_RETURN_IF_ERROR(WaitBatch(ticket, &done));
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

Status FrameTable::VerifyIntegrity() const {
  uint32_t live = 0;
  for (uint64_t i = 0; i < slots_.size(); i++) {
    if (slots_[i].frame == kNoFrame) continue;
    live++;
    // The entry must be reachable by a probe from its home slot: no empty
    // slot may sit between home and the entry (backward-shift deletion
    // maintains this without tombstones).
    for (uint64_t j = Home(slots_[i].key); j != i; j = (j + 1) & mask_) {
      if (slots_[j].frame == kNoFrame) {
        return Status::Corruption("frame-table probe chain broken");
      }
    }
  }
  if (live != size_) {
    return Status::Corruption("frame-table size drift: " +
                              std::to_string(live) + " live vs " +
                              std::to_string(size_) + " recorded");
  }
  return Status::OK();
}

BufferPool::BufferPool(const BufferOptions& options, uint32_t page_size)
    : options_(options), page_size_(page_size), map_(options.frame_count) {
  frames_.resize(options_.frame_count);
  for (auto& f : frames_) f.data = std::make_unique<char[]>(page_size_);
  if (options_.front_cache_slots > 0) {
    uint64_t slots = 2;
    while (slots < options_.front_cache_slots) slots <<= 1;
    // Cap the per-tablespace arrays at 2^20 slots (4 MiB of entries) — a
    // front cache larger than any plausible pool buys nothing.
    slots = std::min<uint64_t>(slots, uint64_t{1} << 20);
    front_mask_ = static_cast<uint32_t>(slots - 1);
  }
}

void BufferPool::RegisterTablespace(PageIo* tablespace) {
  WriterLock lock(latch_);
  const uint32_t id = tablespace->tablespace_id();
  tablespaces_[id] = tablespace;
  if (front_mask_ != 0) {
    if (front_.size() <= id) front_.resize(id + 1);
    front_[id].assign(front_mask_ + 1, FrameTable::kNoFrame);
  }
}

uint32_t BufferPool::MapFind(const PageKey& key) {
  // Versioned frames skip the front cache: the cache is indexed by page_no
  // alone, so snapshot classes of a hot page would just thrash the latest
  // copy's slot (and perturb front-cache stats in snapshot runs).
  if (key.version_class == 0 && front_mask_ != 0 &&
      key.tablespace_id < front_.size() &&
      !front_[key.tablespace_id].empty()) {
    stats_.front_probes++;
    const uint32_t slot = static_cast<uint32_t>(key.page_no) & front_mask_;
    const uint32_t f = front_[key.tablespace_id][slot];
    // A slot holds at most the latest install for (tablespace, page_no &
    // mask); the full-key compare rejects the other pages of the slot.
    if (f != FrameTable::kNoFrame && frames_[f].in_use &&
        frames_[f].key == key) {
      stats_.front_hits++;
      return f;
    }
  }
  const uint32_t f = map_.Find(key);
  if (f != FrameTable::kNoFrame) FrontInstall(key, f);
  return f;
}

void BufferPool::FrontInstall(const PageKey& key, uint32_t frame) {
  if (key.version_class != 0 || front_mask_ == 0 ||
      key.tablespace_id >= front_.size() ||
      front_[key.tablespace_id].empty()) {
    return;
  }
  front_[key.tablespace_id][static_cast<uint32_t>(key.page_no) & front_mask_] =
      frame;
}

void BufferPool::FrontErase(const PageKey& key) {
  if (key.version_class != 0 || front_mask_ == 0 ||
      key.tablespace_id >= front_.size() ||
      front_[key.tablespace_id].empty()) {
    return;
  }
  Relaxed<uint32_t>& entry =
      front_[key.tablespace_id][static_cast<uint32_t>(key.page_no) &
                                front_mask_];
  // Clear only if the slot still points at this key's frame; a different
  // page that displaced it keeps its (valid) entry.
  const uint32_t f = entry;
  if (f != FrameTable::kNoFrame && frames_[f].key == key) {
    entry = FrameTable::kNoFrame;
  }
}

void BufferPool::MapInsert(const PageKey& key, uint32_t frame) {
  map_.Insert(key, frame);
  FrontInstall(key, frame);
}

void BufferPool::MapErase(const PageKey& key) {
  FrontErase(key);
  map_.Erase(key);
}

Status BufferPool::WriteFrameBatch(const std::vector<uint32_t>& frame_ids,
                                   SimTime issue, SimTime* complete,
                                   uint32_t* flushed,
                                   WriterLock& lock) {
  SimTime done = issue;
  Status first_error;

  // Fence every frame first: once the latch drops around a submission, no
  // other thread may evict or re-key a frame this batch still has to write.
  for (uint32_t idx : frame_ids) frames_[idx].io_busy = true;

  // Submit every contiguous same-tablespace run before reaping any: the
  // backend sees exactly the op sequence a serial writer would issue at
  // `issue`, but the frame bookkeeping of later runs happens while earlier
  // runs are already in flight.
  struct WriteRun {
    PageIo* ts = nullptr;
    PageIoTicket ticket = 0;
    std::vector<PageWriteReq> reqs;
    std::vector<uint32_t> frames;
  };
  std::vector<WriteRun> runs;
  size_t i = 0;
  while (i < frame_ids.size()) {
    const uint32_t ts_id = frames_[frame_ids[i]].key.tablespace_id;
    size_t j = i;
    WriteRun run;
    for (; j < frame_ids.size() &&
           frames_[frame_ids[j]].key.tablespace_id == ts_id;
         j++) {
      Frame& f = frames_[frame_ids[j]];
      run.reqs.push_back({f.key.page_no, f.data.get(), Status(), 0});
      run.frames.push_back(frame_ids[j]);
    }
    i = j;
    auto it = tablespaces_.find(ts_id);
    if (it == tablespaces_.end()) {
      if (first_error.ok()) {
        first_error = Status::InvalidArgument("tablespace not registered");
      }
      for (uint32_t idx : run.frames) frames_[idx].io_busy = false;
      continue;
    }
    run.ts = it->second;
    lock.unlock();
    Status s = run.ts->SubmitWrites(run.reqs.data(), run.reqs.size(), issue,
                                    &run.ticket);
    lock.lock();
    if (!s.ok()) {
      if (first_error.ok()) first_error = s;
      for (uint32_t idx : run.frames) frames_[idx].io_busy = false;
      continue;
    }
    runs.push_back(std::move(run));
  }

  // Reap with the latch released (a wait may execute deferred work in the
  // backend); frames are marked clean only once their write's completion is
  // delivered, in the finalize pass under the latch.
  std::vector<Status> run_status(runs.size());
  lock.unlock();
  for (size_t r = 0; r < runs.size(); r++) {
    run_status[r] = runs[r].ts->WaitBatch(runs[r].ticket, nullptr);
  }
  lock.lock();
  for (size_t r = 0; r < runs.size(); r++) {
    WriteRun& run = runs[r];
    if (!run_status[r].ok() && first_error.ok()) first_error = run_status[r];
    for (size_t k = 0; k < run.reqs.size(); k++) {
      Frame& f = frames_[run.frames[k]];
      f.io_busy = false;
      const Status rs = run.reqs[k].status;
      if (rs.ok()) {
        assert(f.dirty);
        f.dirty = false;
        assert(dirty_count_ > 0);
        dirty_count_--;
        if (flushed != nullptr) (*flushed)++;
        done = std::max(done, run.reqs[k].complete);
      } else if (first_error.ok()) {
        first_error = rs;
      }
    }
  }
  cv_.notify_all();
  if (complete != nullptr) *complete = done;
  return first_error;
}

void BufferPool::MaybeFlushBackground(
    txn::TxnContext* ctx, WriterLock& lock) {
  const auto high =
      static_cast<uint32_t>(options_.flush_high_water *
                            static_cast<double>(options_.frame_count));
  if (dirty_count_ <= high) return;

  // Sweep from the flusher's own hand so successive activations cover the
  // whole pool; the collected frames go out as batched submissions issued at
  // ctx->now — the context does not wait.
  std::vector<uint32_t> victims;
  for (uint32_t step = 0;
       step < options_.frame_count && victims.size() < options_.flush_batch;
       step++) {
    Frame& f = frames_[flush_hand_];
    const uint32_t idx = flush_hand_;
    flush_hand_ = (flush_hand_ + 1) % options_.frame_count;
    if (!f.in_use || f.io_busy || !f.dirty || f.pins > 0) continue;
    victims.push_back(idx);
  }
  uint32_t flushed = 0;
  Status s = WriteFrameBatch(victims, ctx->now, nullptr, &flushed, lock);
  stats_.background_flushes += flushed;
  if (!s.ok()) {
    // Failed frames stayed dirty, so nothing is lost yet — but nobody is
    // waiting on this flush to hand the error to. Keep the first one sticky;
    // the next FixPage/FlushAll surfaces it.
    stats_.write_back_errors++;
    if (stats_.first_write_error.ok()) stats_.first_write_error = s;
  }
}

Result<uint32_t> BufferPool::Evict(txn::TxnContext* ctx,
                                   WriterLock& lock) {
  // CLOCK with two passes: first pass honours reference bits and prefers
  // clean frames; if a full sweep finds only dirty candidates, take one and
  // pay the synchronous write.
  uint32_t dirty_candidate = ~0u;
  for (uint32_t round = 0; round < 2 * options_.frame_count; round++) {
    Frame& f = frames_[clock_hand_];
    const uint32_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % options_.frame_count;

    if (!f.in_use) return idx;
    if (f.io_busy) continue;  // another thread's in-flight I/O target
    if (f.pins > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (!f.dirty) {
      MapErase(f.key);
      f.in_use = false;
      stats_.evictions++;
      return idx;
    }
    if (dirty_candidate == ~0u) dirty_candidate = idx;
  }

  if (dirty_candidate == ~0u) {
    return Status::Busy("all buffer frames pinned");
  }
  // Forced dirty eviction: the transaction waits for the write, which runs
  // with the latch released — io_busy fences the victim meanwhile.
  Frame& f = frames_[dirty_candidate];
  PageIo* ts = tablespaces_.at(f.key.tablespace_id);
  const SimTime issue = ctx->now;
  f.io_busy = true;
  lock.unlock();
  SimTime complete = 0;
  Status ws = ts->WritePageRaw(f.key.page_no, issue, f.data.get(), &complete);
  lock.lock();
  f.io_busy = false;
  cv_.notify_all();
  if (!ws.ok()) return ws;  // frame stays dirty and mapped; nothing lost
  assert(f.dirty);
  f.dirty = false;
  assert(dirty_count_ > 0);
  dirty_count_--;
  const SimTime wait = complete > ctx->now ? complete - ctx->now : 0;
  ctx->write_wait_us += wait;
  ctx->pages_written_sync++;
  ctx->AdvanceTo(complete);
  stats_.sync_flushes++;
  MapErase(f.key);
  f.in_use = false;
  stats_.evictions++;
  return dirty_candidate;
}

Result<PageHandle> BufferPool::FixPage(txn::TxnContext* ctx,
                                       const PageKey& key_in, bool create) {
  // Snapshot reads fix the page under its snapshot's version class: a
  // separate frame, resolved through the mapper's retained version chains,
  // never dirtied, never aliasing the latest copy. `create` fixes are
  // writer-side and stay on the latest class.
  PageKey key = key_in;
  uint64_t read_seq = 0;
  if (!create && ctx->snapshot_seq != 0 && key.version_class == 0) {
    key.version_class = ctx->snapshot_seq;
    read_seq = ctx->snapshot_seq;
  }
  // Fast path: the hit rides a shared hold — concurrent with other hits.
  {
    ReaderLock shared(latch_);
    if (stats_.first_write_error.ok()) {
      for (;;) {
        const uint32_t frame = MapFind(key);
        if (frame == FrameTable::kNoFrame) break;  // miss: exclusive path
        Frame& f = frames_[frame];
        if (f.pending_fetch != 0) break;  // reap needs the exclusive path
        if (f.io_busy) {
          // The frame's data is mid-transfer on another thread; wait it out
          // and re-probe (it may have been evicted meanwhile).
          cv_.wait(shared);
          continue;
        }
        f.pins.fetch_add(1);
        f.referenced = true;
        stats_.hits++;
        ctx->buffer_hits++;
        return PageHandle{f.data.get(), frame};
      }
    }
  }

  WriterLock lock(latch_);
  if (!stats_.first_write_error.ok()) {
    // A background victim flush failed since the last call: surface it once
    // (the affected frames are still dirty and will be retried) so the
    // storage error reaches a transaction instead of dying in the flusher.
    Status sticky = stats_.first_write_error;
    stats_.first_write_error = Status::OK();
    return sticky;
  }
  // The shared probe above already counted this lookup; re-probe silently.
  bool count_probe = false;
  uint32_t frame = FrameTable::kNoFrame;
  for (;;) {
    frame = count_probe ? MapFind(key) : MapFindQuiet(key);
    count_probe = false;
    if (frame == FrameTable::kNoFrame) break;  // miss
    Frame& f = frames_[frame];
    if (f.pending_fetch != 0) {
      // The page is a claimed target of an in-flight prefetch: reap that
      // fetch first (this is where submit-early/reap-late callers pay the
      // remaining I/O wait; a foreign context pays only this page's read),
      // then re-probe — a failed read hands the frame back. The re-probe is
      // counted, matching the serial pool.
      (void)WaitFetchInternal(ctx, f.pending_fetch, lock, frame);
      count_probe = true;
      continue;
    }
    if (f.io_busy) {
      cv_.wait(lock);
      continue;
    }
    f.pins.fetch_add(1);
    f.referenced = true;
    stats_.hits++;
    ctx->buffer_hits++;
    return PageHandle{f.data.get(), frame};
  }

  stats_.misses++;
  auto frame_idx = Evict(ctx, lock);
  if (!frame_idx.ok()) return frame_idx.status();
  Frame& f = frames_[*frame_idx];

  if (create) {
    memset(f.data.get(), 0, page_size_);
    f.key = key;
    f.pins = 1;
    f.dirty = false;
    f.referenced = true;
    f.in_use = true;
    MapInsert(key, *frame_idx);
  } else {
    auto ts_it = tablespaces_.find(key.tablespace_id);
    if (ts_it == tablespaces_.end()) {
      return Status::InvalidArgument("tablespace not registered with pool");
    }
    // Claim the frame (mapped + pinned + fenced) before dropping the latch
    // for the read, so concurrent fixes of the same page wait instead of
    // double-reading.
    f.key = key;
    f.pins = 1;
    f.dirty = false;
    f.referenced = true;
    f.in_use = true;
    f.io_busy = true;
    MapInsert(key, *frame_idx);
    const SimTime issue = ctx->now;
    lock.unlock();
    SimTime complete = 0;
    Status s = ts_it->second->ReadPageRaw(key.page_no, issue, f.data.get(),
                                          &complete, read_seq);
    lock.lock();
    f.io_busy = false;
    cv_.notify_all();
    bool zero_filled = false;
    if (s.IsNotFound() && read_seq != 0) {
      // No version visible at the snapshot: the page was empty when the
      // snapshot was taken. A zeroed frame is exactly that state; no flash
      // read happened, so nothing is accounted.
      memset(f.data.get(), 0, page_size_);
      s = Status::OK();
      complete = issue;
      zero_filled = true;
    }
    if (!s.ok()) {
      MapErase(key);
      f.pins = 0;
      f.in_use = false;
      return s;
    }
    const SimTime wait = complete > ctx->now ? complete - ctx->now : 0;
    ctx->AddReadWait(wait);
    if (!zero_filled) ctx->pages_read++;
    ctx->AdvanceTo(complete);
  }

  // Let the flushers catch up with write pressure created by this fix.
  MaybeFlushBackground(ctx, lock);
  return PageHandle{f.data.get(), *frame_idx};
}

Status BufferPool::FetchPages(txn::TxnContext* ctx, const PageKey* keys,
                              size_t count) {
  FetchTicket ticket = 0;
  Status submit = SubmitFetch(ctx, keys, count, &ticket);
  Status wait = WaitFetch(ctx, ticket);
  return submit.ok() ? wait : submit;
}

Status BufferPool::SubmitFetch(txn::TxnContext* ctx, const PageKey* keys,
                               size_t count, FetchTicket* ticket) {
  if (count == 0 && *ticket == 0) return Status::OK();

  // Bound one in-flight fetch by half the pool, so the claim pins can never
  // exhaust the evictable frames no matter how large the request is: the
  // leading chunks are fetched synchronously, only the last stays in flight.
  // (Chunking recurses through the public entry points, so it runs before
  // this thread takes the latch.)
  const size_t max_chunk = std::max<uint32_t>(1u, options_.frame_count / 2);
  if (count > max_chunk) {
    size_t base = 0;
    for (; count - base > max_chunk; base += max_chunk) {
      NOFTL_RETURN_IF_ERROR(FetchPages(ctx, keys + base, max_chunk));
    }
    keys += base;
    count -= base;
  }

  WriterLock lock(latch_);
  // Join: a live fetch of this context named by *ticket takes the new runs,
  // so one reap delivers both. Taking it out of the pending list while it
  // grows is the same state as a fresh mid-submission fetch: a concurrent
  // toucher of its claimed frames waits on cv_ until it registers again.
  PendingFetch fetch;
  auto joined = pending_fetches_.end();
  if (*ticket != 0) {
    joined = std::find_if(pending_fetches_.begin(), pending_fetches_.end(),
                          [&](const PendingFetch& f) {
                            return f.id == *ticket && f.owner == ctx;
                          });
  }
  if (joined != pending_fetches_.end()) {
    fetch = std::move(*joined);
    pending_fetches_.erase(joined);
  } else {
    fetch.id = next_fetch_id_++;
    fetch.owner = ctx;
  }
  *ticket = 0;

  // Claim a frame per absent page and hand every contiguous same-tablespace
  // run to the backend as soon as it is formed: claiming (and its possible
  // synchronous dirty evictions) for later pages overlaps with the runs
  // already in flight. Claimed frames are pinned until the reap so a later
  // claim's eviction sweep cannot steal them.
  FetchRun run;
  auto release_run_claims = [&](const FetchRun& r) {
    for (size_t k = 0; k < r.frames.size(); k++) {
      Frame& f = frames_[r.frames[k]];
      MapErase(r.keys[k]);
      f.pins = 0;
      f.pending_fetch = 0;
      f.in_use = false;
      pending_claim_pins_--;
    }
    cv_.notify_all();
  };
  auto submit_run = [&]() -> Status {
    if (run.reqs.empty()) return Status::OK();
    run.issue = ctx->now;
    PageIo* ts = run.ts;
    // The claimed frames are pinned and flagged pending_fetch, so they
    // survive the latch drop; a concurrent fix of one of them waits on cv_
    // until this fetch registers.
    lock.unlock();
    Status s = ts->SubmitReads(run.reqs.data(), run.reqs.size(), run.issue,
                               &run.ticket);
    lock.lock();
    if (!s.ok()) {
      release_run_claims(run);
      run = FetchRun{};
      return s;
    }
    stats_.batched_fetches++;
    fetch.runs.push_back(std::move(run));
    run = FetchRun{};
    return Status::OK();
  };
  auto unwind = [&]() {
    // A submission cannot be taken back; deliver what is already in flight,
    // then hand back the claims of the unsubmitted run.
    if (!fetch.runs.empty()) {
      const FetchTicket id = fetch.id;
      pending_fetches_.push_back(std::move(fetch));
      cv_.notify_all();
      (void)WaitFetchInternal(ctx, id, lock);
    }
    release_run_claims(run);
  };

  Status submit_error;
  for (size_t i = 0; i < count; i++) {
    PageKey key = keys[i];
    // Prefetches from a snapshot context claim versioned frames and tag the
    // reads, mirroring FixPage — a later FixPage of the same page under the
    // same snapshot hits these frames.
    if (ctx->snapshot_seq != 0 && key.version_class == 0) {
      key.version_class = ctx->snapshot_seq;
    }
    if (MapFind(key) != FrameTable::kNoFrame) {
      // Resident (possibly as another fetch's in-flight claim): one stat
      // event per requested page, like a serial FixPage.
      stats_.hits++;
      ctx->buffer_hits++;
      continue;
    }
    if (pending_claim_pins_ >= max_chunk) {
      // The claim budget is shared by every in-flight fetch: no matter how
      // many fetches a caller stacks up (e.g. a transaction prefetching two
      // tables), at most half the pool is ever claim-pinned, so FixPage
      // misses and later claims always find evictable frames. The pages
      // beyond the budget simply miss serially.
      break;
    }
    auto ts_it = tablespaces_.find(key.tablespace_id);
    if (ts_it == tablespaces_.end()) {
      unwind();
      return Status::InvalidArgument("tablespace not registered with pool");
    }
    if (run.ts != nullptr && run.ts != ts_it->second) {
      submit_error = submit_run();
      if (!submit_error.ok()) break;
    }
    auto frame_idx = Evict(ctx, lock);
    if (!frame_idx.ok()) {
      if (frame_idx.status().IsBusy() &&
          (!fetch.runs.empty() || !run.reqs.empty())) {
        // Pool too pinned to claim more: prefetch what was claimed and let
        // the remaining pages miss serially through FixPage.
        break;
      }
      unwind();
      return frame_idx.status();
    }
    Frame& f = frames_[*frame_idx];
    f.key = key;
    f.pins = 1;  // claim guard; dropped once the fetch is reaped
    f.pending_fetch = fetch.id;
    f.dirty = false;
    f.referenced = true;
    f.in_use = true;
    MapInsert(key, *frame_idx);
    pending_claim_pins_++;
    run.ts = ts_it->second;
    run.reqs.push_back({key.page_no, f.data.get(), Status(), 0,
                        key.version_class});
    run.frames.push_back(*frame_idx);
    run.keys.push_back(key);
    stats_.misses++;
  }
  if (submit_error.ok()) submit_error = submit_run();
  if (!submit_error.ok()) {
    // A failed submit never returns a live ticket: drain whatever was
    // already in flight so the caller has nothing to clean up.
    unwind();
    return submit_error;
  }
  if (fetch.runs.empty()) return Status::OK();
  *ticket = fetch.id;
  pending_fetches_.push_back(std::move(fetch));
  cv_.notify_all();  // wake fixes waiting for this fetch to register
  return Status::OK();
}

Status BufferPool::WaitFetch(txn::TxnContext* ctx, FetchTicket ticket) {
  if (ticket == 0) return Status::OK();
  WriterLock lock(latch_);
  return WaitFetchInternal(ctx, ticket, lock);
}

Status BufferPool::WaitFetchInternal(txn::TxnContext* ctx, FetchTicket ticket,
                                     WriterLock& lock,
                                     uint32_t touched_frame) {
  if (ticket == 0) return Status::OK();
  PendingFetch fetch;
  for (;;) {
    auto it = std::find_if(
        pending_fetches_.begin(), pending_fetches_.end(),
        [&](const PendingFetch& f) { return f.id == ticket; });
    if (it != pending_fetches_.end()) {
      fetch = std::move(*it);
      pending_fetches_.erase(it);
      break;
    }
    // Already reaped by another context: the batch completion was kept for
    // this (owning) caller.
    auto done = std::find_if(
        reaped_for_owner_.begin(), reaped_for_owner_.end(),
        [&](const ReapedFetch& r) { return r.id == ticket; });
    if (done != reaped_for_owner_.end()) {
      const ReapedFetch reaped = std::move(*done);
      reaped_for_owner_.erase(done);
      if (ctx != nullptr) {
        ChargeOwner(ctx, reaped.complete, reaped.pages_read, lock);
      }
      return reaped.first_error;
    }
    // Not registered. Either the fetch was already reaped (no frame still
    // references it — done), or it is mid-submission / mid-reap on another
    // thread: wait for it to settle and look again.
    bool referenced = false;
    for (const Frame& f : frames_) {
      if (f.in_use && f.pending_fetch == ticket) {
        referenced = true;
        break;
      }
    }
    if (!referenced) return Status::OK();
    cv_.wait(lock);
  }

  // Reap every run with the latch released (completion delivery happens in
  // the backend); finalize the frames under it.
  std::vector<Status> run_status(fetch.runs.size());
  lock.unlock();
  for (size_t r = 0; r < fetch.runs.size(); r++) {
    run_status[r] = fetch.runs[r].ts->WaitBatch(fetch.runs[r].ticket, nullptr);
  }
  lock.lock();

  SimTime batch_complete = 0;
  SimTime touched_latency = 0;
  uint64_t pages_read = 0;
  Status first_error;
  for (size_t r = 0; r < fetch.runs.size(); r++) {
    FetchRun& run = fetch.runs[r];
    if (!run_status[r].ok() && first_error.ok()) first_error = run_status[r];
    for (size_t k = 0; k < run.reqs.size(); k++) {
      Frame& f = frames_[run.frames[k]];
      f.pins = 0;
      f.pending_fetch = 0;
      pending_claim_pins_--;
      const Status rs = run.reqs[k].status;
      if (rs.IsNotFound() && run.reqs[k].read_seq != 0) {
        // Snapshot semantics: no version visible at the snapshot = the page
        // was empty then. Keep the frame resident, zeroed; no flash read
        // happened, so no read is accounted.
        memset(f.data.get(), 0, page_size_);
        stats_.batched_fetch_pages++;
        continue;
      }
      if (!rs.ok()) {
        // The page never became resident; hand the frame back.
        MapErase(run.keys[k]);
        f.in_use = false;
        if (first_error.ok()) first_error = rs;
        continue;
      }
      pages_read++;
      stats_.batched_fetch_pages++;
      batch_complete = std::max(batch_complete, run.reqs[k].complete);
      if (run.frames[k] == touched_frame) {
        touched_latency = run.reqs[k].complete - run.issue;
      }
    }
  }
  cv_.notify_all();
  if (ctx != nullptr && ctx == fetch.owner) {
    ChargeOwner(ctx, batch_complete, pages_read, lock);
    return first_error;
  }
  // A foreign reap: the batch completion lives on the owner's clock, so it
  // is kept for the owner's WaitFetch; the toucher waits only for its page.
  reaped_for_owner_.push_back({fetch.id, batch_complete, pages_read,
                               first_error});
  if (ctx != nullptr) {
    ctx->AddReadWait(touched_latency);
    ctx->AdvanceTo(ctx->now + touched_latency);
    MaybeFlushBackground(ctx, lock);
  }
  return first_error;
}

void BufferPool::ChargeOwner(txn::TxnContext* ctx, SimTime complete,
                             uint64_t pages_read, WriterLock& lock) {
  const SimTime wait = complete > ctx->now ? complete - ctx->now : 0;
  ctx->AddReadWait(wait);
  ctx->pages_read += pages_read;
  ctx->AdvanceTo(complete);
  MaybeFlushBackground(ctx, lock);
}

void BufferPool::Unfix(const PageHandle& handle, bool dirty) {
  // Runs under a shared hold: pins and the dirty flag are atomics, and the
  // 0->1 dirty edge is counted exactly once via exchange.
  ReaderLock lock(latch_);
  assert(handle.valid() && handle.frame < frames_.size());
  Frame& f = frames_[handle.frame];
  assert(f.pins > 0);
  f.pins.fetch_sub(1);
  if (dirty && !f.dirty.exchange(true)) dirty_count_++;
}

Status BufferPool::FlushAll(txn::TxnContext* ctx) {
  WriterLock lock(latch_);
  // Wait out any in-flight write-back first so the sweep sees a stable dirty
  // set (threaded mode only; callers quiesce their workers before a
  // checkpoint, so pinned dirty frames are not mutated mid-write).
  for (bool busy = true; busy;) {
    busy = false;
    for (const Frame& f : frames_) {
      if (f.io_busy) {
        busy = true;
        cv_.wait(lock);
        break;
      }
    }
  }
  std::vector<uint32_t> dirty;
  for (uint32_t i = 0; i < frames_.size(); i++) {
    if (frames_[i].in_use && frames_[i].dirty) dirty.push_back(i);
  }
  SimTime done = ctx->now;
  Status s = WriteFrameBatch(dirty, ctx->now, &done, nullptr, lock);
  if (!s.ok()) {
    stats_.first_write_error = Status::OK();  // superseded by this error
    return s;
  }
  ctx->AdvanceTo(done);
  if (!stats_.first_write_error.ok()) {
    // Every dirty frame (including earlier background-flush casualties) was
    // just written successfully, but the caller must still learn that a
    // flush failed since the last report.
    Status sticky = stats_.first_write_error;
    stats_.first_write_error = Status::OK();
    return sticky;
  }
  return Status::OK();
}

void BufferPool::Discard(const PageKey& key) {
  WriterLock lock(latch_);
  DiscardInternal(key, lock);
}

void BufferPool::DiscardInternal(const PageKey& key,
                                 WriterLock& lock) {
  for (;;) {
    const uint32_t frame = MapFind(key);
    if (frame == FrameTable::kNoFrame) return;
    Frame& f = frames_[frame];
    if (f.pending_fetch != 0) {
      // Dropping a page that is still in flight: deliver the fetch first
      // (without a context — the caller is tearing the object down, not
      // accounting I/O waits), then re-probe.
      (void)WaitFetchInternal(nullptr, f.pending_fetch, lock);
      continue;
    }
    if (f.io_busy) {
      cv_.wait(lock);
      continue;
    }
    assert(f.pins == 0);
    if (f.dirty) {
      f.dirty = false;
      dirty_count_--;
    }
    f.in_use = false;
    MapErase(key);
    return;
  }
}

void BufferPool::DiscardTablespace(uint32_t tablespace_id) {
  WriterLock lock(latch_);
  for (uint32_t i = 0; i < frames_.size(); i++) {
    Frame& f = frames_[i];
    if (f.in_use && f.key.tablespace_id == tablespace_id) {
      DiscardInternal(f.key, lock);
    }
  }
  tablespaces_.erase(tablespace_id);
  if (tablespace_id < front_.size()) front_[tablespace_id].clear();
}

Status BufferPool::VerifyIntegrity() const {
  ReaderLock lock(latch_);
  NOFTL_RETURN_IF_ERROR(map_.VerifyIntegrity());
  uint32_t in_use = 0;
  uint32_t dirty = 0;
  for (uint32_t i = 0; i < frames_.size(); i++) {
    const Frame& f = frames_[i];
    if (!f.in_use) continue;
    in_use++;
    if (f.dirty) dirty++;
    if (map_.Find(f.key) != i) {
      return Status::Corruption("frame " + std::to_string(i) +
                                " not mapped to its key");
    }
  }
  if (in_use != map_.size()) {
    return Status::Corruption("frame table has " + std::to_string(map_.size()) +
                              " entries for " + std::to_string(in_use) +
                              " in-use frames");
  }
  if (dirty != dirty_count_) {
    return Status::Corruption("dirty count drift: " + std::to_string(dirty) +
                              " dirty frames vs " +
                              std::to_string(static_cast<uint32_t>(dirty_count_)) +
                              " recorded");
  }
  // Front-cache cross-check: every populated slot must point at an in-use
  // frame of that tablespace whose page maps to the slot, and the frame
  // table must agree — i.e. the front cache can only ever short-circuit
  // lookups, never answer differently than the FrameTable.
  for (uint32_t ts = 0; ts < front_.size(); ts++) {
    for (uint32_t slot = 0; slot < front_[ts].size(); slot++) {
      const uint32_t f = front_[ts][slot];
      if (f == FrameTable::kNoFrame) continue;
      if (f >= frames_.size() || !frames_[f].in_use) {
        return Status::Corruption("front cache points at a free frame");
      }
      const PageKey& key = frames_[f].key;
      if (key.tablespace_id != ts ||
          (static_cast<uint32_t>(key.page_no) & front_mask_) != slot) {
        return Status::Corruption("front cache entry in the wrong slot");
      }
      if (map_.Find(key) != f) {
        return Status::Corruption("front cache disagrees with frame table");
      }
    }
  }
  return Status::OK();
}

}  // namespace noftl::buffer
