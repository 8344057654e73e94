#include "ftl/mapping.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "ftl/checkpoint.h"

namespace noftl::ftl {

using flash::BlockId;
using flash::DieId;
using flash::OpOrigin;
using flash::PageId;
using flash::PhysAddr;

OutOfPlaceMapper::OutOfPlaceMapper(flash::FlashDevice* device,
                                   std::vector<DieId> dies,
                                   uint64_t logical_pages,
                                   const MapperOptions& options)
    : device_(device),
      dies_(std::move(dies)),
      logical_pages_(logical_pages),
      options_(options) {
  // Nobody shares a half-constructed mapper, but InitDieState carries
  // REQUIRES(mu_) and the runtime tracker expects acquisitions to pair: take
  // the (uncontended) latch for the body.
  MutexLock lock(mu_);
  assert(!dies_.empty());
  const auto& geo = device_->geometry();
  pages_per_block_ = geo.pages_per_block;
  words_per_block_ = (geo.pages_per_block + kWordBits - 1) / kWordBits;
  if (options_.checkpoint_slots > 0) {
    reserved_per_die_ = CheckpointStore::ReservedBlocksPerDie(
        geo, options_.checkpoint_slots);
    if (reserved_per_die_ < geo.blocks_per_die) {
      ckpt_ = std::make_unique<CheckpointStore>(device_, dies_,
                                                options_.checkpoint_slots);
    }
    // else: the slots don't fit the die. Keep reserved_per_die_ as computed
    // so CheckCapacity reports InvalidArgument, but construct safely (no
    // usable data blocks, no store) instead of wrapping the subtraction.
  }
  data_blocks_per_die_ = reserved_per_die_ < geo.blocks_per_die
                             ? geo.blocks_per_die - reserved_per_die_
                             : 0;
  die_slot_.assign(geo.total_dies(), kNoSlot);
  die_states_.reserve(dies_.size());
  for (DieId die : dies_) {
    assert(die < die_slot_.size());
    assert(die_slot_[die] == kNoSlot);
    die_slot_[die] = static_cast<uint32_t>(die_states_.size());
    die_states_.emplace_back();
    InitDieState(&die_states_.back(), die);
  }
  l2p_.assign(logical_pages_, PhysAddr{kUnmappedDie, 0, 0});
  versions_.assign(logical_pages_, 0);
}

OutOfPlaceMapper::~OutOfPlaceMapper() = default;

void OutOfPlaceMapper::InitDieState(DieState* ds, DieId die) {
  const auto& geo = device_->geometry();
  ds->die = die;
  ds->blocks.assign(geo.blocks_per_die, BlockInfo{});
  ds->valid_bits.assign(
      static_cast<size_t>(geo.blocks_per_die) * words_per_block_, 0);
  ds->back.assign(static_cast<size_t>(geo.blocks_per_die) * pages_per_block_,
                  kUnmappedLpn);
  ds->bucket_head.assign(pages_per_block_ + 1, kNoBlock);
  ds->min_bucket = 0;
  FreeClear(*ds);
  // Push in descending id order: FreePop takes from the back, so a fresh
  // die hands out blocks in ascending id order (matches the previous
  // ordered-set free list and keeps placement deterministic). The reserved
  // checkpoint blocks at the top of the die never enter the pool.
  for (BlockId b = data_blocks_per_die_; b > 0; b--) FreePush(*ds, b - 1);
}

// --- Candidate bucket lists ------------------------------------------------

void OutOfPlaceMapper::BucketInsert(DieState& ds, uint32_t block) {
  BlockInfo& bi = ds.blocks[block];
  assert(!bi.in_bucket);
  const uint32_t vc = bi.valid_count;
  bi.bucket_prev = kNoBlock;
  bi.bucket_next = ds.bucket_head[vc];
  if (bi.bucket_next != kNoBlock) ds.blocks[bi.bucket_next].bucket_prev = block;
  ds.bucket_head[vc] = block;
  bi.in_bucket = true;
  if (vc < ds.min_bucket) ds.min_bucket = vc;
}

void OutOfPlaceMapper::BucketRemove(DieState& ds, uint32_t block) {
  BlockInfo& bi = ds.blocks[block];
  assert(bi.in_bucket);
  if (bi.bucket_prev != kNoBlock) {
    ds.blocks[bi.bucket_prev].bucket_next = bi.bucket_next;
  } else {
    ds.bucket_head[bi.valid_count] = bi.bucket_next;
  }
  if (bi.bucket_next != kNoBlock) {
    ds.blocks[bi.bucket_next].bucket_prev = bi.bucket_prev;
  }
  bi.bucket_prev = kNoBlock;
  bi.bucket_next = kNoBlock;
  bi.in_bucket = false;
}

void OutOfPlaceMapper::OnBlockFull(DieState& ds, uint32_t block) {
  BlockInfo& bi = ds.blocks[block];
  bi.is_active = false;
  if (!bi.in_bucket && bi.pinned == 0 && !(bi.bad && bi.valid_count == 0)) {
    BucketInsert(ds, block);
  }
}

void OutOfPlaceMapper::PinBlock(const PhysAddr& slot) {
  DieState& ds = StateOf(slot.die);
  BlockInfo& bi = ds.blocks[slot.block];
  bi.pinned++;
  if (bi.in_bucket) BucketRemove(ds, slot.block);
}

void OutOfPlaceMapper::UnpinBlock(const PhysAddr& slot) {
  DieState& ds = StateOf(slot.die);
  BlockInfo& bi = ds.blocks[slot.block];
  assert(bi.pinned > 0);
  bi.pinned--;
  if (bi.pinned == 0 && !bi.in_bucket && !bi.is_active &&
      device_->NextProgramPage(slot.die, slot.block) >= pages_per_block_ &&
      !(bi.bad && bi.valid_count == 0)) {
    BucketInsert(ds, slot.block);
  }
}

// --- Free pool (segregated by erase count) ---------------------------------

void OutOfPlaceMapper::FreePush(DieState& ds, uint32_t block) {
  const uint32_t ec = device_->EraseCount(ds.die, block);
  if (ec >= ds.free_buckets.size()) ds.free_buckets.resize(ec + 1);
  ds.free_buckets[ec].push_back(block);
  ds.free_count++;
  if (ec < ds.free_min) ds.free_min = ec;
  if (ec > ds.free_max) ds.free_max = ec;
}

uint32_t OutOfPlaceMapper::FreePop(DieState& ds) {
  if (ds.free_count == 0) return kNoBlock;
  uint32_t idx;
  if (options_.dynamic_wear_leveling) {
    idx = ds.free_min;  // least worn first
    while (ds.free_buckets[idx].empty()) idx++;
    ds.free_min = idx;
  } else {
    idx = std::min<uint32_t>(
        ds.free_max, static_cast<uint32_t>(ds.free_buckets.size()) - 1);
    while (idx > 0 && ds.free_buckets[idx].empty()) idx--;
    ds.free_max = idx;
  }
  const uint32_t block = ds.free_buckets[idx].back();
  ds.free_buckets[idx].pop_back();
  ds.free_count--;
  if (ds.free_count == 0) {
    ds.free_min = ~0u;
    ds.free_max = 0;
  }
  return block;
}

void OutOfPlaceMapper::FreeClear(DieState& ds) {
  for (auto& bucket : ds.free_buckets) bucket.clear();
  ds.free_count = 0;
  ds.free_min = ~0u;
  ds.free_max = 0;
}

// --- Valid-count transitions -----------------------------------------------

void OutOfPlaceMapper::MarkValid(DieState& ds, uint32_t block, uint32_t page,
                                 uint64_t lpn) {
  BlockInfo& bi = ds.blocks[block];
  assert(!TestValid(ds, block, page));
  // Unlink before mutating valid_count (BucketRemove needs the old bucket).
  const bool was_candidate = bi.in_bucket;
  if (was_candidate) BucketRemove(ds, block);
  SetValidBit(ds, block, page);
  SetBack(ds, block, page, lpn);
  bi.valid_count++;
  total_valid_++;
  if (was_candidate) BucketInsert(ds, block);
}

void OutOfPlaceMapper::MarkInvalid(DieState& ds, uint32_t block,
                                   uint32_t page) {
  BlockInfo& bi = ds.blocks[block];
  assert(TestValid(ds, block, page));
  const bool was_candidate = bi.in_bucket;
  if (was_candidate) BucketRemove(ds, block);
  ClearValidBit(ds, block, page);
  SetBack(ds, block, page, kUnmappedLpn);
  assert(bi.valid_count > 0);
  bi.valid_count--;
  total_valid_--;
  // A retired block whose last valid page just went away leaves the
  // candidate index for good.
  if (was_candidate && !(bi.bad && bi.valid_count == 0)) {
    BucketInsert(ds, block);
  }
}

// ---------------------------------------------------------------------------

uint64_t OutOfPlaceMapper::physical_pages() const {
  MutexLock lock(mu_);
  return dies_.size() * device_->geometry().pages_per_die();
}

Status OutOfPlaceMapper::CheckCapacity() const {
  MutexLock lock(mu_);
  const auto& geo = device_->geometry();
  const uint64_t reserve_blocks_per_die =
      options_.gc_high_watermark + 2 + reserved_per_die_;
  if (geo.blocks_per_die <= reserve_blocks_per_die) {
    return Status::InvalidArgument(
        "die too small for GC + checkpoint reserve");
  }
  const uint64_t usable =
      dies_.size() *
      static_cast<uint64_t>(geo.blocks_per_die - reserve_blocks_per_die) *
      geo.pages_per_block;
  if (logical_pages_ > usable) {
    return Status::NoSpace("logical size leaves no GC headroom: " +
                           std::to_string(logical_pages_) + " > " +
                           std::to_string(usable) + " usable pages");
  }
  return Status::OK();
}

uint32_t OutOfPlaceMapper::AllocBlock(DieState* ds, bool for_gc) {
  if (ds->free_count == 0) return kNoBlock;
  if (!for_gc && ds->free_count <= 1) return kNoBlock;
  const uint32_t block = FreePop(*ds);
  ds->blocks[block].is_active = true;
  return block;
}

bool OutOfPlaceMapper::DieThrottled(DieState& ds) {
  if (options_.throttle_low_watermark == 0) return false;
  const uint32_t high = std::max(options_.throttle_high_watermark,
                                 options_.throttle_low_watermark);
  if (ds.throttled) {
    if (ds.free_count >= high) ds.throttled = false;
  } else if (ds.free_count < options_.throttle_low_watermark) {
    ds.throttled = true;
  }
  return ds.throttled;
}

Status OutOfPlaceMapper::AdmitHostWrite() {
  if (options_.throttle_low_watermark == 0) return Status::OK();
  const bool can_wait = bg_reclaimer_.load(std::memory_order_relaxed);
  static constexpr int kWaitSlices = 8;
  bool engaged = false;
  for (int slice = 0;; slice++) {
    {
      MutexLock lock(mu_);
      bool any_clear = false;
      for (DieState& ds : die_states_) {
        if (!DieThrottled(ds)) {
          any_clear = true;
          break;
        }
      }
      if (any_clear) {
        if (engaged) stats_.throttle_waits++;
        return Status::OK();
      }
      if (!engaged) {
        stats_.throttle_events++;
        engaged = true;
      }
    }
    if (!can_wait || slice >= kWaitSlices) {
      stats_.throttle_busy++;
      return Status::Busy(
          "write admission throttled: free-block reserves exhausted on every "
          "die");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::max<SimTime>(1, options_.throttle_wait_us / kWaitSlices)));
  }
}

bool OutOfPlaceMapper::DieCanTakeWrite(DieState& ds) {
  // Cheapest test first: a die above its last free block never needs GC
  // to open a host block.
  if (ds.free_count > 1 || ds.gc_victim != kNoBlock) return true;
  if (ds.host_active != kNoBlock &&
      device_->NextProgramPage(ds.die, ds.host_active) < pages_per_block_) {
    return true;
  }
  // A candidate below the full bucket is a victim GC can reclaim.
  uint64_t steps = 0;
  return LowestVictimBucket(ds, &steps) < pages_per_block_;
}

DieId OutOfPlaceMapper::PickWriteDie(SimTime issue, bool avoid_throttled) {
  // Least-busy die of the set (ties broken round-robin): spreads bursty
  // write batches across the available parallelism instead of queueing them
  // blindly — §2's "better utilization of available Flash parallelism
  // through intelligent data placement". Dies rank before their horizons
  // count: one that cannot take the write (DieCanTakeWrite) comes last, and
  // under admission control a throttled die (its remaining reserve belongs
  // to the background reclaimer) comes after every clear one. A die of the
  // best rank already idle at `issue` starts the program immediately, and
  // no die can start sooner, so the scan stops at the first such die in
  // cursor order.
  const bool steer = avoid_throttled && options_.throttle_low_watermark > 0;
  const size_t n = dies_.size();
  die_busy_.resize(n);
  device_->DiesBusyUntil(dies_.data(), n, die_busy_.data());
  size_t at = write_cursor_++ % n;
  DieId best = dies_[at];
  SimTime best_busy = ~SimTime{0};
  int best_rank = 3;
  const auto beats_best = [&](int rank, SimTime busy) {
    return rank < best_rank || (rank == best_rank && busy < best_busy);
  };
  for (size_t i = 0; i < n; i++, at = at + 1 == n ? 0 : at + 1) {
    const DieId candidate = dies_[at];
    const SimTime busy = die_busy_[at];
    int rank = steer && DieThrottled(StateOf(candidate)) ? 1 : 0;
    if (!beats_best(rank, busy)) continue;
    // Almost every die can take the write, so that is asked only of a die
    // that would otherwise become the best.
    if (!DieCanTakeWrite(StateOf(candidate))) {
      rank = 2;
      if (!beats_best(rank, busy)) continue;
    }
    if (rank == 0 && busy <= issue) return candidate;
    best = candidate;
    best_busy = busy;
    best_rank = rank;
  }
  return best;
}

void OutOfPlaceMapper::InvalidateOld(uint64_t lpn) {
  PhysAddr& old = l2p_[lpn];
  if (old.die == kUnmappedDie) return;
  DieState& ds = StateOf(old.die);
  MarkInvalid(ds, old.block, old.page);
  old = PhysAddr{kUnmappedDie, 0, 0};
}

void OutOfPlaceMapper::Map(uint64_t lpn, const PhysAddr& addr) {
  l2p_[lpn] = addr;
  MarkValid(StateOf(addr.die), addr.block, addr.page, lpn);
}

// --- Flash-native MVCC -----------------------------------------------------

uint64_t OutOfPlaceMapper::NextWriteSeq() {
  return options_.snapshots != nullptr ? options_.snapshots->Draw() : 0;
}

uint64_t OutOfPlaceMapper::LastSeqOf(uint64_t lpn) const {
  return lpn < last_seq_.size() ? last_seq_[lpn] : 0;
}

void OutOfPlaceMapper::SetLastSeq(uint64_t lpn, uint64_t seq) {
  if (last_seq_.empty()) {
    if (seq == 0) return;  // snapshots off (or pre-sequence): nothing to track
    last_seq_.assign(logical_pages_, 0);
  }
  last_seq_[lpn] = seq;
}

void OutOfPlaceMapper::RetainOrInvalidate(uint64_t lpn, uint64_t new_seq) {
  mvcc::VersionHorizon* h = options_.snapshots;
  const PhysAddr old = l2p_[lpn];
  if (h == nullptr || old.die == kUnmappedDie) {
    InvalidateOld(lpn);
    SetLastSeq(lpn, new_seq);
    return;
  }
  const uint64_t old_seq = LastSeqOf(lpn);
  if (h->ShouldRetain(old_seq)) {
    // A live (or half-open) snapshot may still read the current copy: move
    // it onto the retained chain. The valid bit and back pointer stay set —
    // GC sees and relocates it like any live page — only the live mapping
    // is unhooked. The entry covers snapshots in [old_seq, new_seq).
    retained_[lpn].push_back({old, old_seq, new_seq});
    retained_count_++;
    stats_.versions_retained++;
    l2p_[lpn] = PhysAddr{kUnmappedDie, 0, 0};
  } else {
    InvalidateOld(lpn);
  }
  SetLastSeq(lpn, new_seq);
}

Result<PhysAddr> OutOfPlaceMapper::ResolveForRead(uint64_t lpn,
                                                  uint64_t read_seq) const {
  if (read_seq == 0 || options_.snapshots == nullptr ||
      LastSeqOf(lpn) <= read_seq) {
    const PhysAddr addr = l2p_[lpn];
    if (addr.die == kUnmappedDie) return Status::NotFound("lpn unmapped");
    return addr;
  }
  // The current copy postdates the snapshot: the visible version, if any,
  // sits on the retained chain (kept in increasing seq order) — newest
  // entry whose sequence the snapshot covers.
  auto it = retained_.find(lpn);
  if (it != retained_.end()) {
    for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
      if (rit->seq > read_seq) continue;
      // A gap between this entry's supersession and the snapshot means the
      // page was trimmed at the snapshot (the trim drew next_seq and left
      // no copy behind).
      if (rit->next_seq <= read_seq) break;
      return rit->addr;
    }
  }
  return Status::NotFound("no version visible at snapshot");
}

OutOfPlaceMapper::RetainedVersion* OutOfPlaceMapper::FindRetained(
    uint64_t lpn, const PhysAddr& addr) {
  auto it = retained_.find(lpn);
  if (it == retained_.end()) return nullptr;
  for (RetainedVersion& rv : it->second) {
    if (rv.addr == addr) return &rv;
  }
  return nullptr;
}

void OutOfPlaceMapper::DropRetained(uint64_t lpn, const PhysAddr& addr) {
  auto it = retained_.find(lpn);
  if (it == retained_.end()) return;
  auto& chain = it->second;
  for (size_t i = 0; i < chain.size(); i++) {
    if (!(chain[i].addr == addr)) continue;
    chain.erase(chain.begin() + i);
    retained_count_--;
    stats_.versions_reclaimed++;
    break;
  }
  if (chain.empty()) retained_.erase(it);
}

void OutOfPlaceMapper::ReclaimRetainedLocked() {
  if (retained_.empty()) return;
  mvcc::VersionHorizon* h = options_.snapshots;
  for (auto it = retained_.begin(); it != retained_.end();) {
    auto& chain = it->second;
    for (size_t i = 0; i < chain.size();) {
      if (h != nullptr && h->MayBeLive(chain[i].seq, chain[i].next_seq)) {
        i++;
        continue;
      }
      const PhysAddr a = chain[i].addr;
      MarkInvalid(StateOf(a.die), a.block, a.page);
      chain.erase(chain.begin() + i);
      retained_count_--;
      stats_.versions_reclaimed++;
    }
    it = chain.empty() ? retained_.erase(it) : std::next(it);
  }
}

void OutOfPlaceMapper::ReclaimRetainedVersions() {
  MutexLock lock(mu_);
  ReclaimRetainedLocked();
}

void OutOfPlaceMapper::MarkDirtyLpn(uint64_t lpn) {
  if (ckpt_ == nullptr || ckpt_->slots() < kMinDeltaCheckpointSlots) return;
  if (dirty_words_.empty()) {
    dirty_words_.assign((logical_pages_ + kWordBits - 1) / kWordBits, 0);
  }
  uint64_t& w = dirty_words_[lpn / kWordBits];
  const uint64_t bit = uint64_t{1} << (lpn % kWordBits);
  if ((w & bit) == 0) {
    w |= bit;
    dirty_count_++;
  }
}

bool OutOfPlaceMapper::IsMapped(uint64_t lpn) const {
  MutexLock lock(mu_);
  return lpn < logical_pages_ && l2p_[lpn].die != kUnmappedDie;
}

Result<PhysAddr> OutOfPlaceMapper::Lookup(uint64_t lpn) const {
  MutexLock lock(mu_);
  if (lpn >= logical_pages_) return Status::OutOfRange("lpn out of range");
  if (l2p_[lpn].die == kUnmappedDie) return Status::NotFound("lpn unmapped");
  return l2p_[lpn];
}

Status OutOfPlaceMapper::Read(uint64_t lpn, SimTime issue, OpOrigin origin,
                              char* data, SimTime* complete,
                              uint64_t read_seq) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  if (origin == OpOrigin::kHost) stats_.foreground_arrivals++;
  MutexLock lock(mu_);
  if (lpn >= logical_pages_) return Status::OutOfRange("lpn out of range");
  // Health scrubs queued by earlier reads run first (they may move this
  // very page off a disturbed block); translation happens after.
  ProcessReadScrubs(issue);
  auto resolved = ResolveForRead(lpn, read_seq);
  if (!resolved.ok()) return resolved.status();
  if (read_seq != 0) stats_.snapshot_reads++;
  const PhysAddr addr = *resolved;
  flash::OpResult r = device_->ReadPage(addr, issue, origin, data, nullptr);
  NOFTL_RETURN_IF_ERROR(
      FinishRead(lpn, addr, r, origin, data, complete, read_seq));
  if (origin == OpOrigin::kHost) stats_.host_reads++;
  return Status::OK();
}

Status OutOfPlaceMapper::FinishRead(uint64_t lpn, PhysAddr addr,
                                    flash::OpResult r, OpOrigin origin,
                                    char* data, SimTime* complete,
                                    uint64_t read_seq) {
  for (uint32_t attempt = 1;; attempt++) {
    // A read past the block's disturb limit flags `disturbed` on success
    // and failure alike: relocate the block's data before it degrades.
    if (r.disturbed) QueueReadScrub(addr);
    if (r.ok()) {
      if (complete != nullptr) *complete = r.complete;
      return Status::OK();
    }
    if (!r.status.IsIOError()) return r.status;
    if (!r.transient) {
      // Hard (uncorrectable) page: scrub its block and fall back to the
      // newest superseded copy the out-of-place history still holds. A
      // snapshot read already targets a specific version — adopting a
      // different copy as the live mapping on its behalf would corrupt the
      // latest state, so it reports the loss as-is.
      QueueReadScrub(addr);
      if (read_seq == 0) {
        Status s = SalvageSupersededCopy(lpn, r.complete, data, complete);
        if (s.ok()) {
          stats_.reads_salvaged++;
          return Status::OK();
        }
      }
      stats_.reads_lost++;
      return Status::DataLoss("page hard-unreadable, no surviving copy: lpn " +
                              std::to_string(lpn));
    }
    if (attempt >= options_.read_retry_attempts) {
      stats_.read_retries_exhausted++;
      return Status::IOError("read retries exhausted: lpn " +
                             std::to_string(lpn));
    }
    stats_.read_retries++;
    const SimTime retry_at = r.complete + options_.read_retry_backoff_us * attempt;
    // Let queued scrubs relocate the failing block before the retry, then
    // re-translate: a scrubbed page's retry targets the fresh copy (whose
    // disturb counter restarted at zero). Snapshot reads re-resolve through
    // their version chain the same way (a scrub may have relocated the
    // retained copy too).
    ProcessReadScrubs(retry_at);
    auto resolved = ResolveForRead(lpn, read_seq);
    if (!resolved.ok()) {
      return Status::NotFound("lpn unmapped during read retry");
    }
    addr = *resolved;
    r = device_->ReadPage(addr, retry_at, origin, data, nullptr);
  }
}

void OutOfPlaceMapper::QueueReadScrub(const PhysAddr& addr) {
  if (addr.die >= die_slot_.size() || die_slot_[addr.die] == kNoSlot) return;
  // Checkpoint-reserved blocks are rewritten wholesale per checkpoint and
  // never hold mapped data; the scrub machinery must not touch them.
  if (addr.block >= data_blocks_per_die_) return;
  // A batched read reaps with a `disturbed` flag captured at submission;
  // by reap time GC may have erased the block (resetting the disturb
  // counter) and returned it to the free pool. Queueing it anyway would
  // pass the staleness guard (the erase count is sampled here, after that
  // erase) and scrub-push a free block into the pool a second time.
  if (device_->NextProgramPage(addr.die, addr.block) == 0) return;
  for (const ReadScrub& s : read_scrubs_) {
    if (s.die == addr.die && s.block == addr.block) return;
  }
  read_scrubs_.push_back({addr.die, addr.block,
                          device_->EraseCount(addr.die, addr.block), 0});
  stats_.read_scrubs_queued++;
}

void OutOfPlaceMapper::ProcessReadScrubs(SimTime issue,
                                         flash::DieId only_die) {
  if (read_scrubs_.empty()) return;
  std::vector<ReadScrub> pending = std::move(read_scrubs_);
  read_scrubs_.clear();
  for (ReadScrub& e : pending) {
    if (only_die != kAllDies && e.die != only_die) {
      read_scrubs_.push_back(e);
      continue;
    }
    if (e.die >= die_slot_.size() || die_slot_[e.die] == kNoSlot) continue;
    // Erased since queueing (GC got there first): the disturb counter and
    // any unreadable pages were reset with the payload — hazard gone.
    if (device_->EraseCount(e.die, e.block) != e.erase_count) continue;
    if (StateOf(e.die).blocks[e.block].pinned != 0) {
      // Holds uncommitted atomic-batch pages; revisit after the batch.
      read_scrubs_.push_back(e);
      continue;
    }
    if (ScrubBlock(e.die, e.block, issue).ok()) {
      stats_.read_scrub_blocks++;
    } else if (++e.attempts < 3) {
      read_scrubs_.push_back(e);
    }
    // After 3 failed erases the entry is dropped: ScrubBlock already
    // rescued the valid pages (relocation precedes the erase) and retired
    // the block, so only a stale unreadable payload lingers out of
    // rotation.
  }
}

Status OutOfPlaceMapper::SalvageSupersededCopy(uint64_t lpn, SimTime issue,
                                               char* data, SimTime* complete) {
  // Out-of-place updates leave every superseded copy of an lpn on flash
  // until GC reclaims it, version-stamped in the OOB. When the live copy
  // goes hard-unreadable, the newest still-readable copy is the best
  // surviving state — byte-identical whenever it is a GC-relocated
  // duplicate of the same version, one-write stale otherwise.
  struct Candidate {
    uint64_t version;
    PhysAddr addr;
  };
  std::vector<Candidate> candidates;
  const PhysAddr current = l2p_[lpn];
  for (const DieState& ds : die_states_) {
    for (BlockId b = 0; b < data_blocks_per_die_; b++) {
      const PageId limit = device_->NextProgramPage(ds.die, b);
      if (limit == 0) continue;
      const flash::PageMetadata* meta = device_->PeekBlockMetadata(ds.die, b);
      for (PageId p = 0; p < limit; p++) {
        if (meta[p].logical_id != lpn) continue;
        // Copies above the current version are aborted-batch orphans
        // awaiting scrub — never-committed data, not a salvage source.
        if (meta[p].version > versions_[lpn]) continue;
        const PhysAddr addr{ds.die, b, p};
        if (addr == current) continue;
        candidates.push_back({meta[p].version, addr});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.version != b.version) return a.version > b.version;
              return std::tie(a.addr.die, a.addr.block, a.addr.page) >
                     std::tie(b.addr.die, b.addr.block, b.addr.page);
            });
  for (const Candidate& c : candidates) {
    flash::OpResult r = device_->ReadPage(c.addr, issue, OpOrigin::kGc, data,
                                          nullptr);
    if (!r.ok()) continue;
    // Adopt the salvaged copy as the live mapping. versions_ stays put (it
    // must never regress); the unreadable ex-live copy still carries the
    // higher OOB version, but its block is queued for scrub — once erased,
    // a post-crash recovery converges on this copy too.
    InvalidateOld(lpn);
    if (TestValid(StateOf(c.addr.die), c.addr.block, c.addr.page)) {
      // The candidate is a retained snapshot version: already valid and
      // back-pointed, so Map's fresh-page bookkeeping would double-count
      // it. Promote the chain entry to the live mapping directly.
      RetainedVersion* rv = FindRetained(lpn, c.addr);
      if (rv != nullptr) {
        SetLastSeq(lpn, rv->seq);
        DropRetained(lpn, c.addr);
      }
      l2p_[lpn] = c.addr;
    } else {
      Map(lpn, c.addr);
    }
    MarkDirtyLpn(lpn);
    if (complete != nullptr) *complete = r.complete;
    return Status::OK();
  }
  return Status::DataLoss("no readable copy of lpn " + std::to_string(lpn));
}

Status OutOfPlaceMapper::SubmitBatch(storage::IoRequest* requests, size_t count,
                                     SimTime issue, OpOrigin origin,
                                     storage::IoTicket* ticket) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  using storage::IoOp;
  if (origin == OpOrigin::kHost) {
    stats_.foreground_arrivals++;
    // One admission decision covers the whole batch (its writes run
    // back-to-back under the latch; per-page re-admission could tear the
    // batch apart on a transient throttle).
    for (size_t i = 0; i < count; i++) {
      if (requests[i].op != IoOp::kWrite) continue;
      Status admit = AdmitHostWrite();
      if (!admit.ok()) {
        // Rejected submission: no ticket exists, so every slot resolves now
        // (the contract of storage::IoBatch::FailAll).
        for (size_t k = 0; k < count; k++) {
          requests[k].status = admit;
          requests[k].done = true;
        }
        return admit;
      }
      break;
    }
  }
  MutexLock lock(mu_);
  ProcessReadScrubs(issue);
  PendingBatch batch;
  batch.id = next_io_ticket_++;
  batch.issue = issue;
  batch.done = issue;
  batch.origin = origin;
  batch.ios.reserve(count);
  for (size_t i = 0; i < count; i++) {
    storage::IoRequest& r = requests[i];
    PendingIo io;
    io.req = &r;
    switch (r.op) {
      case IoOp::kRead: {
        // Translate now (reads never change the mapping, so up-front
        // translation equals translating each read at its turn) and enqueue
        // on the device: each op is booked at `issue` on its die's timeline
        // in submission order, so reads of one batch that land on distinct
        // dies overlap. The result stays on the device CQ
        // until the caller reaps it.
        if (r.lpn >= logical_pages_) {
          io.status = Status::OutOfRange("lpn out of range");
          break;
        }
        auto resolved = ResolveForRead(r.lpn, r.read_seq);
        if (!resolved.ok()) {
          io.status = resolved.status();
          break;
        }
        if (r.read_seq != 0) stats_.snapshot_reads++;
        const PhysAddr addr = *resolved;
        io.dev_ticket =
            device_->SubmitRead({addr, r.read_buf, nullptr}, issue, origin);
        io.addr = addr;
        io.read_seq = r.read_seq;
        io.host_read = origin == OpOrigin::kHost;
        break;
      }
      case IoOp::kWrite: {
        // Same state path a single WritePage takes (die choice, bad-block
        // retry, GC step, checkpoint trigger), issued at the batch time:
        // the device has accepted the program, only the completion delivery
        // waits for the reap.
        SimTime page_done = issue;
        io.status = WriteLocked(r.lpn, issue, origin, r.write_data,
                                r.object_id, &page_done);
        if (io.status.ok()) io.complete = page_done;
        break;
      }
      case IoOp::kTrim:
        io.status = TrimLocked(r.lpn);
        io.complete = issue;
        break;
    }
    batch.ios.push_back(std::move(io));
  }
  const storage::IoTicket id = batch.id;
  inflight_.push_back(std::move(batch));
  if (ticket == nullptr) {
    // A caller with no ticket slot can never reap: leaving the batch
    // in-flight would leak it holding pointers into the caller's requests
    // (a use-after-free once those requests die). Degrade to
    // call-and-resolve instead.
    return WaitBatchLocked(id, nullptr);
  }
  *ticket = id;
  return Status::OK();
}

storage::IoTicket OutOfPlaceMapper::EnqueueResolved(
    storage::IoRequest* requests, size_t count, SimTime issue,
    const Status& status, SimTime done) {
  MutexLock lock(mu_);
  PendingBatch batch;
  batch.id = next_io_ticket_++;
  batch.issue = issue;
  batch.done = issue;
  batch.ios.reserve(count);
  for (size_t i = 0; i < count; i++) {
    PendingIo io;
    io.req = &requests[i];
    io.status = status;
    if (status.ok()) io.complete = done;
    batch.ios.push_back(std::move(io));
  }
  const storage::IoTicket id = batch.id;
  inflight_.push_back(std::move(batch));
  return id;
}

void OutOfPlaceMapper::RetireIo(PendingBatch* batch, PendingIo* io) {
  if (io->dev_ticket != 0) {
    auto r = device_->WaitFor(io->dev_ticket);
    if (r.ok()) {
      // Same reliability policy as the single-page path: transient-failure
      // retries with backoff, disturb/hard-failure scrub queueing, salvage.
      // Safe here because the device captures read data eagerly at submit —
      // a scrub erase during the retries cannot corrupt parked reads.
      io->status = FinishRead(io->req->lpn, io->addr, *r, batch->origin,
                              io->req->read_buf, &io->complete, io->read_seq);
      if (io->status.ok() && io->host_read) stats_.host_reads++;
    } else {
      io->status = r.status();
    }
    io->dev_ticket = 0;
  }
  if (io->status.ok()) batch->done = std::max(batch->done, io->complete);
  storage::IoRequest* req = io->req;
  req->status = io->status;
  req->complete = io->complete;
  req->done = true;
}

Status OutOfPlaceMapper::WaitBatch(storage::IoTicket ticket,
                                   SimTime* complete) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  return WaitBatchLocked(ticket, complete);
}

Status OutOfPlaceMapper::WaitBatchLocked(storage::IoTicket ticket,
                                         SimTime* complete) {
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->id != ticket) continue;
    PendingBatch batch = std::move(*it);
    inflight_.erase(it);
    for (PendingIo& io : batch.ios) RetireIo(&batch, &io);
    if (complete != nullptr) *complete = batch.done;
    return Status::OK();
  }
  // Unknown or already reaped: idempotent.
  return Status::OK();
}

Status OutOfPlaceMapper::PrepareHostSlot(DieId die, SimTime issue,
                                         PhysAddr* slot) {
  const auto& geo = device_->geometry();
  DieState& ds = StateOf(die);

  if (ds.host_active != kNoBlock &&
      device_->NextProgramPage(die, ds.host_active) >= geo.pages_per_block) {
    OnBlockFull(ds, ds.host_active);
    ds.host_active = kNoBlock;
  }
  if (ds.host_active == kNoBlock) {
    // Emergency: GC fell behind; the host write stalls for full victim
    // reclamations (the rare foreground-GC case). The last free block is
    // reserved for GC, so the host needs two.
    while (ds.free_count <= 1) {
      stats_.emergency_reclaims++;
      NOFTL_RETURN_IF_ERROR(ReclaimVictim(die, issue));
    }
    ds.host_active = AllocBlock(&ds, /*for_gc=*/false);
    if (ds.host_active == kNoBlock) {
      return Status::NoSpace("die has no free blocks after GC");
    }
  }
  slot->die = die;
  slot->block = ds.host_active;
  slot->page = device_->NextProgramPage(die, ds.host_active);
  return Status::OK();
}

void OutOfPlaceMapper::PadBlockFull(DieId die, uint32_t block, SimTime issue) {
  // One vectored submission for the whole tail. Pad programs may fail too —
  // the page is burned and the cursor advances either way, so the submission
  // runs through every remaining page exactly like the per-page loop did.
  const auto& geo = device_->geometry();
  const PageId first = device_->NextProgramPage(die, block);
  if (first >= geo.pages_per_block) return;
  std::vector<flash::PageProgramOp> ops;
  ops.reserve(geo.pages_per_block - first);
  for (PageId p = first; p < geo.pages_per_block; p++) {
    ops.push_back({{die, block, p}, nullptr, flash::PageMetadata{}});
  }
  std::vector<flash::OpResult> results(ops.size());
  device_->ProgramPages(ops.data(), ops.size(), issue, OpOrigin::kMeta,
                        results.data());
}

void OutOfPlaceMapper::RetireBlock(DieId die, uint32_t block) {
  DieState& ds = StateOf(die);
  BlockInfo& bi = ds.blocks[block];
  if (bi.bad) return;
  bi.bad = true;
  retired_blocks_++;
  // Pad the remaining pages so the block is fully programmed and therefore
  // a normal GC victim; its surviving valid pages get rescued that way.
  PadBlockFull(die, block, 0);
  if (ds.host_active == block) ds.host_active = kNoBlock;
  if (ds.gc_active == block) ds.gc_active = kNoBlock;
  // Now fully programmed and no longer an append target: a GC candidate
  // while it still holds valid pages to rescue, out of rotation otherwise.
  OnBlockFull(ds, block);
}

Status OutOfPlaceMapper::EraseOrRetire(DieId die, uint32_t block,
                                       SimTime issue) {
  DieState& ds = StateOf(die);
  BlockInfo& bi = ds.blocks[block];
  if (bi.in_bucket) BucketRemove(ds, block);
  if (bi.bad) {
    // Already retired: never goes back into rotation.
    return Status::OK();
  }
  flash::OpResult er = device_->EraseBlock(die, block, issue, OpOrigin::kGc);
  if (er.status.IsIOError() || er.status.IsWornOut()) {
    bi.bad = true;
    retired_blocks_++;
    return Status::OK();
  }
  if (!er.ok()) return er.status;
  stats_.gc_erases++;
  FreePush(ds, block);
  return Status::OK();
}

Status OutOfPlaceMapper::ProgramWithRetry(uint64_t lpn, SimTime issue,
                                          OpOrigin origin, const char* data,
                                          const flash::PageMetadata& meta,
                                          PhysAddr* slot, SimTime* complete) {
  (void)lpn;
  static constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
    const DieId die = PickWriteDie(issue, origin == OpOrigin::kHost);
    NOFTL_RETURN_IF_ERROR(PrepareHostSlot(die, issue, slot));
    flash::OpResult r = device_->ProgramPage(*slot, issue, origin, data, meta);
    if (r.ok()) {
      if (complete != nullptr) *complete = r.complete;
      return Status::OK();
    }
    if (!r.status.IsIOError()) return r.status;
    // Bad-block management: retire the failed block, retry on a new slot.
    RetireBlock(die, slot->block);
  }
  return Status::IOError("program failed on " + std::to_string(kMaxAttempts) +
                         " blocks");
}

Status OutOfPlaceMapper::Write(uint64_t lpn, SimTime issue, OpOrigin origin,
                               const char* data, uint32_t object_id,
                               SimTime* complete) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  if (origin == OpOrigin::kHost) {
    stats_.foreground_arrivals++;
    NOFTL_RETURN_IF_ERROR(AdmitHostWrite());
  }
  MutexLock lock(mu_);
  return WriteLocked(lpn, issue, origin, data, object_id, complete);
}

Status OutOfPlaceMapper::WriteLocked(uint64_t lpn, SimTime issue,
                                     OpOrigin origin, const char* data,
                                     uint32_t object_id, SimTime* complete) {
  if (lpn >= logical_pages_) return Status::OutOfRange("lpn out of range");

  flash::PageMetadata meta;
  meta.logical_id = lpn;
  meta.version = versions_[lpn] + 1;
  meta.object_id = object_id;
  meta.committed_upto = committed_batches_;

  PhysAddr slot;
  SimTime done = issue;
  NOFTL_RETURN_IF_ERROR(
      ProgramWithRetry(lpn, issue, origin, data, meta, &slot, &done));

  versions_[lpn]++;
  RetainOrInvalidate(lpn, NextWriteSeq());
  Map(lpn, slot);
  MarkDirtyLpn(lpn);
  StateOf(slot.die).blocks[slot.block].last_update = done;
  if (complete != nullptr) *complete = done;
  if (origin == OpOrigin::kHost) stats_.host_writes++;

  // Foreground GC step after the host program, paced by the die's victim:
  // it extends the die's busy horizon (later host I/O queues behind it)
  // without stalling this write.
  NOFTL_RETURN_IF_ERROR(GcStep(slot.die, done));
  MaybeAutoCheckpoint(1, done);
  return Status::OK();
}

Status OutOfPlaceMapper::WriteAtomicBatch(const std::vector<BatchPage>& pages,
                                          SimTime issue, OpOrigin origin,
                                          uint32_t object_id,
                                          SimTime* complete) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  if (origin == OpOrigin::kHost) {
    stats_.foreground_arrivals++;
    NOFTL_RETURN_IF_ERROR(AdmitHostWrite());
  }
  MutexLock lock(mu_);
  if (pages.empty()) return Status::InvalidArgument("empty atomic batch");
  {
    std::set<uint64_t> seen;
    for (const auto& page : pages) {
      if (page.lpn >= logical_pages_) {
        return Status::OutOfRange("lpn out of range");
      }
      if (!seen.insert(page.lpn).second) {
        return Status::InvalidArgument("duplicate lpn in atomic batch");
      }
    }
  }

  // Orphans of earlier aborted batches must be gone before this batch can
  // commit: its commit watermark stamp would move past their ids and make
  // them recoverable as committed data. If a scrub still cannot complete
  // (e.g. a worn-out block whose erase keeps failing), committing would be
  // unsound — refuse the batch; plain writes remain available.
  RetryPendingScrubs(issue);
  if (!pending_scrubs_.empty()) {
    return Status::Busy("aborted-batch orphans pending scrub");
  }

  const uint64_t batch_id = next_batch_id_++;
  std::vector<PhysAddr> slots(pages.size());
  SimTime done = issue;

  // Phase 1: program every page out-of-place without touching the mapping.
  // The old versions remain the visible (and recoverable) state until
  // commit. Each programmed block is pinned: its batch pages are invisible
  // to the mapping, so GC would otherwise see the block as pure garbage and
  // could erase it while later batch pages (or their emergency
  // reclamations) still run. On failure the already-programmed orphans are
  // scrubbed off flash — left behind, they would become eligible at
  // recovery as soon as a later batch pushes the commit watermark past this
  // batch id, resurrecting never-committed data.
  for (size_t i = 0; i < pages.size(); i++) {
    flash::PageMetadata meta;
    meta.logical_id = pages[i].lpn;
    meta.version = versions_[pages[i].lpn] + 1;
    meta.object_id = object_id;
    meta.batch_id = batch_id;
    meta.batch_size = static_cast<uint32_t>(pages.size());
    meta.committed_upto = committed_batches_;
    SimTime page_done = issue;
    Status s = ProgramWithRetry(pages[i].lpn, issue, origin, pages[i].data,
                                meta, &slots[i], &page_done);
    if (!s.ok()) {
      for (size_t j = 0; j < i; j++) UnpinBlock(slots[j]);
      ScrubAbortedBatch(pages, slots, i, batch_id, issue);
      return s;
    }
    PinBlock(slots[i]);
    done = std::max(done, page_done);
  }

  // Phase 2: commit — switch all mappings at once (in-memory, instant),
  // then release the pins (the pages are visible and count as valid now).
  // Advancing the watermark first makes every later program (including the
  // GC steps below) carry durable commit evidence for this batch.
  committed_batches_ = std::max(committed_batches_, batch_id);
  // One commit sequence covers the whole batch: a snapshot drawn
  // concurrently lands either entirely before it (sees every old version)
  // or entirely after (sees every new one) — per-page sequences would let
  // a snapshot straddle the commit and read half the batch.
  const uint64_t commit_seq = NextWriteSeq();
  for (size_t i = 0; i < pages.size(); i++) {
    versions_[pages[i].lpn]++;
    RetainOrInvalidate(pages[i].lpn, commit_seq);
    Map(pages[i].lpn, slots[i]);
    MarkDirtyLpn(pages[i].lpn);
    StateOf(slots[i].die).blocks[slots[i].block].last_update = done;
    if (origin == OpOrigin::kHost) stats_.host_writes++;
  }
  for (size_t i = 0; i < pages.size(); i++) UnpinBlock(slots[i]);
  for (size_t i = 0; i < pages.size(); i++) {
    NOFTL_RETURN_IF_ERROR(GcStep(slots[i].die, done));
  }
  MaybeAutoCheckpoint(pages.size(), done);
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

Status OutOfPlaceMapper::RelocateOne(DieState& ds, uint32_t victim,
                                     flash::PageId page,
                                     const flash::PageMetadata* victim_meta,
                                     SimTime issue) {
  const auto& geo = device_->geometry();
  const DieId die = ds.die;
  assert(TestValid(ds, victim, page));

  const uint64_t lpn = BackOf(ds, victim, page);
  assert(lpn != kUnmappedLpn);
  const PhysAddr src{die, victim, page};
  // A valid page the live mapping does not reference is a retained snapshot
  // version (MVCC). Dead entries — no live snapshot can read them anymore —
  // are reclaimed in place instead of paying a copyback; live ones relocate
  // like any valid page, with the chain entry (not l2p_) following the copy.
  RetainedVersion* retained = nullptr;
  if (!(l2p_[lpn] == src)) {
    retained = FindRetained(lpn, src);
    mvcc::VersionHorizon* h = options_.snapshots;
    if (retained == nullptr || h == nullptr ||
        !h->MayBeLive(retained->seq, retained->next_seq)) {
      MarkInvalid(ds, victim, page);
      if (retained != nullptr) DropRetained(lpn, src);
      return Status::OK();
    }
  }

  static constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
    if (ds.gc_active != kNoBlock &&
        device_->NextProgramPage(die, ds.gc_active) >= geo.pages_per_block) {
      OnBlockFull(ds, ds.gc_active);
      ds.gc_active = kNoBlock;
    }
    if (ds.gc_active == kNoBlock) {
      ds.gc_active = AllocBlock(&ds, /*for_gc=*/true);
      if (ds.gc_active == kNoBlock) {
        return Status::NoSpace("GC has no destination block on die " +
                               std::to_string(die));
      }
    }

    const PageId dst_page = device_->NextProgramPage(die, ds.gc_active);
    // Relocation preserves the OOB metadata verbatim. The unchanged version
    // means both copies tie and recovery's address tie-break is harmless —
    // and an in-flight atomic batch's phase-1 page for this lpn (at
    // versions_+1) stays strictly newer than the relocated old copy, so a
    // post-commit crash cannot resurrect pre-batch data. The preserved
    // batch markers keep a committed batch's on-flash copy count at or
    // above batch_size while its members survive; stripping them would let
    // GC erosion of the originals look like a torn batch at recovery. Only
    // the commit watermark is refreshed (this program happens now, so it
    // can testify to every batch committed so far). The victim block's OOB
    // array was resolved once by the caller — no per-page device lookup.
    flash::PageMetadata meta = victim_meta[page];
    assert(meta.logical_id == lpn);
    meta.committed_upto = std::max(meta.committed_upto, committed_batches_);
    flash::OpResult cb = device_->Copyback(die, victim, page, ds.gc_active,
                                           dst_page, issue, OpOrigin::kGc,
                                           &meta);
    if (cb.status.IsIOError()) {
      // Destination page burned: retire the GC block and retry elsewhere.
      RetireBlock(die, ds.gc_active);
      continue;
    }
    if (!cb.ok()) return cb.status;
    stats_.gc_copybacks++;

    MarkInvalid(ds, victim, page);
    const PhysAddr dst{die, ds.gc_active, dst_page};
    if (retained != nullptr) {
      // Retained snapshot version: the live mapping stays untouched; only
      // the chain entry follows the relocated copy.
      MarkValid(ds, ds.gc_active, dst_page, lpn);
      retained->addr = dst;
    } else {
      Map(lpn, dst);
      MarkDirtyLpn(lpn);
    }
    ds.blocks[ds.gc_active].last_update = cb.complete;
    return Status::OK();
  }
  return Status::IOError("copyback failed on " + std::to_string(kMaxAttempts) +
                         " blocks");
}

Status OutOfPlaceMapper::RelocateFromVictim(DieState& ds, uint32_t victim,
                                            uint32_t max_pages, SimTime issue,
                                            uint32_t* moved) {
  // Iterate the victim's packed bitmap directly: one ctz per valid page,
  // with the die/victim state — including the block's whole OOB metadata
  // array — resolved once instead of per page. The GC victim's array was
  // resolved when it was picked (StartVictim); any other block (a scrub)
  // resolves its own here.
  *moved = 0;
  BlockInfo& vb = ds.blocks[victim];
  if (vb.valid_count == 0 || max_pages == 0) return Status::OK();
  const flash::PageMetadata* victim_meta = ds.gc_victim_meta;
  if (victim != ds.gc_victim) {
    victim_meta = device_->PeekBlockMetadata(ds.die, victim);
    stats_.gc_meta_lookups++;
  }
  const size_t base = static_cast<size_t>(victim) * words_per_block_;
  for (uint32_t w = 0; w < words_per_block_; w++) {
    if (vb.valid_count == 0 || *moved >= max_pages) break;
    // Snapshot the word: RelocateOne clears exactly the bit being moved
    // (relocation targets a different block), and we mirror that clear in
    // the snapshot as we consume it.
    uint64_t word = ds.valid_bits[base + w];
    while (word != 0 && *moved < max_pages) {
      const uint32_t bit = static_cast<uint32_t>(std::countr_zero(word));
      word &= word - 1;
      NOFTL_RETURN_IF_ERROR(
          RelocateOne(ds, victim, w * kWordBits + bit, victim_meta, issue));
      (*moved)++;
    }
  }
  return Status::OK();
}

Status OutOfPlaceMapper::ScrubBlock(DieId die, uint32_t block, SimTime issue) {
  DieState& ds = StateOf(die);
  BlockInfo& bi = ds.blocks[block];
  if (ds.gc_victim == block) EndVictim(ds);
  // Rescue valid pages first; the append-point roles are only detached once
  // the block is actually clear, so a failed rescue cannot strand a
  // partially-programmed block outside every index (non-active, non-free,
  // invisible to both victim scans — leaked until the next recovery).
  if (bi.valid_count > 0) {
    const bool was_gc_active = ds.gc_active == block;
    if (was_gc_active) {
      // Detach so the relocation cannot pick the block as its own
      // destination.
      ds.gc_active = kNoBlock;
      bi.is_active = false;
    }
    uint32_t moved = 0;
    Status s = RelocateFromVictim(ds, block, ~0u, issue, &moved);
    if (!s.ok()) {
      if (was_gc_active) {
        if (ds.gc_active == kNoBlock) {
          ds.gc_active = block;
          bi.is_active = true;
        } else {
          // The rescue allocated a replacement append block before failing,
          // so this one cannot resume the role. Pad it full (RetireBlock's
          // idiom) so it re-enters the candidate index instead of being
          // stranded part-programmed outside every structure.
          PadBlockFull(die, block, issue);
          OnBlockFull(ds, block);
        }
      }
      return s;
    }
  }
  if (ds.host_active == block) {
    ds.host_active = kNoBlock;
    bi.is_active = false;
  }
  if (ds.gc_active == block) {
    ds.gc_active = kNoBlock;
    bi.is_active = false;
  }
  // Erase directly rather than via EraseOrRetire: that helper swallows an
  // erase failure as retire-and-OK, which here would hide that the stale
  // payload survived (recovery reads retired blocks like any others).
  // Callers queue a failed scrub for retry.
  if (bi.in_bucket) BucketRemove(ds, block);
  flash::OpResult er = device_->EraseBlock(die, block, issue, OpOrigin::kGc);
  if (er.status.IsIOError() || er.status.IsWornOut()) {
    if (!bi.bad) {
      bi.bad = true;
      retired_blocks_++;
    }
    return er.status;
  }
  if (!er.ok()) return er.status;
  stats_.gc_erases++;
  // A block retired earlier stays out of rotation even when its erase (and
  // with it the payload scrub) succeeded.
  if (!bi.bad) FreePush(ds, block);
  return Status::OK();
}

void OutOfPlaceMapper::ScrubAbortedBatch(const std::vector<BatchPage>& pages,
                                         const std::vector<PhysAddr>& slots,
                                         size_t programmed, uint64_t batch_id,
                                         SimTime issue) {
  // The orphans sit at versions_ + 1; advance past them so any future write
  // of these lpns is strictly newer even if the scrub below cannot erase a
  // block (worn out, or no space to rescue its valid neighbours).
  for (size_t j = 0; j < programmed; j++) {
    versions_[pages[j].lpn]++;
    MarkDirtyLpn(pages[j].lpn);
  }

  // The batch already failed, so scrub errors are not propagated — but they
  // are queued for retry: the orphans must be off flash before a later
  // batch commit moves the watermark past this batch id. Until then the
  // version bump above keeps surviving orphans benign for every lpn that is
  // written again before the next crash.
  std::vector<PendingScrub> blocks;
  blocks.reserve(programmed);
  for (size_t j = 0; j < programmed; j++) {
    blocks.push_back({slots[j].die, slots[j].block, batch_id});
  }
  ScrubBlocksBestEffort(std::move(blocks), issue);
}

bool OutOfPlaceMapper::BlockHoldsBatchPages(DieId die, uint32_t block,
                                            uint64_t batch_id) const {
  for (PageId p = 0; p < pages_per_block_; p++) {
    const PhysAddr addr{die, block, p};
    if (device_->GetPageState(addr) == flash::PageState::kProgrammed &&
        device_->PeekMetadata(addr).batch_id == batch_id) {
      return true;
    }
  }
  return false;
}

void OutOfPlaceMapper::ScrubBlocksBestEffort(std::vector<PendingScrub> blocks,
                                             SimTime issue) {
  // Scrub each distinct block once; on failure, queue every batch id it was
  // listed for (the hazard check in RetryPendingScrubs is per id).
  std::map<std::pair<DieId, uint32_t>, std::set<uint64_t>> by_block;
  for (const PendingScrub& e : blocks) {
    by_block[{e.die, e.block}].insert(e.batch_id);
  }
  for (const auto& [key, ids] : by_block) {
    if (!ScrubBlock(key.first, key.second, issue).ok()) {
      for (uint64_t id : ids) {
        pending_scrubs_.push_back({key.first, key.second, id});
      }
    }
  }
}

void OutOfPlaceMapper::RetryPendingScrubs(SimTime issue,
                                          flash::DieId only_die) {
  if (pending_scrubs_.empty()) return;
  std::vector<PendingScrub> again;
  for (const PendingScrub& p : pending_scrubs_) {
    if (only_die != kAllDies && p.die != only_die) {
      again.push_back(p);
      continue;
    }
    // Drop only once the hazard is actually gone — no page of the offending
    // batch left in the block. The check reads the device, not the mapper
    // state, so it also covers blocks on dies removed from this mapper.
    // (Erase counts are no proxy: a failed erase wears the block yet leaves
    // the payload readable; batch ids are never reused, so recycled blocks
    // cannot alias.)
    if (!BlockHoldsBatchPages(p.die, p.block, p.batch_id)) continue;
    // Entries always reference dies still in the mapper (RemoveDie refuses
    // to drop a die while an entry points at it); guard defensively anyway
    // — ScrubBlock would index freed die state otherwise.
    if (p.die >= die_slot_.size() || die_slot_[p.die] == kNoSlot) {
      again.push_back(p);
      continue;
    }
    if (!ScrubBlock(p.die, p.block, issue).ok()) again.push_back(p);
  }
  pending_scrubs_ = std::move(again);
}

Status OutOfPlaceMapper::Trim(uint64_t lpn) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  MutexLock lock(mu_);
  return TrimLocked(lpn);
}

Status OutOfPlaceMapper::TrimLocked(uint64_t lpn) {
  if (lpn >= logical_pages_) return Status::OutOfRange("lpn out of range");
  // A trim is a supersede with no new copy: snapshots older than the trim
  // keep reading the retained version; snapshots after it see NotFound
  // (ResolveForRead's gap rule).
  RetainOrInvalidate(lpn, NextWriteSeq());
  MarkDirtyLpn(lpn);
  return Status::OK();
}

uint32_t OutOfPlaceMapper::LowestVictimBucket(DieState& ds, uint64_t* steps) {
  // Advance the cached minimum over empty buckets (amortized O(1): inserts
  // below the hint lower it again).
  uint32_t lo = ds.min_bucket;
  while (lo < pages_per_block_ && ds.bucket_head[lo] == kNoBlock) lo++;
  *steps += lo - ds.min_bucket + 1;
  ds.min_bucket = lo;
  return lo;
}

uint32_t OutOfPlaceMapper::PickVictimImpl(DieState& ds, SimTime now,
                                          VictimIndex index, uint64_t* steps) {
  const uint32_t P = pages_per_block_;

  if (index == VictimIndex::kLinearScan) {
    // Baseline: examine every (non-reserved) block of the die on every pick.
    uint32_t best = kNoBlock;
    double best_score = -1.0;
    uint32_t best_empty = kNoBlock;
    SimTime best_empty_update = 0;
    for (BlockId b = 0; b < data_blocks_per_die_; b++) {
      (*steps)++;
      const BlockInfo& bi = ds.blocks[b];
      if (bi.is_active) continue;
      // Only fully-programmed blocks are GC candidates; partially programmed
      // non-active blocks do not exist in this design.
      if (device_->NextProgramPage(ds.die, b) < P) continue;
      if (bi.valid_count == P) continue;  // nothing to gain
      // Retired blocks are only worth visiting while they still hold valid
      // pages to rescue; afterwards they are permanently out of rotation.
      if (bi.bad && bi.valid_count == 0) continue;
      // Holds not-yet-committed atomic-batch pages: off-limits to GC.
      if (bi.pinned != 0) continue;

      if (options_.victim_policy == VictimPolicy::kGreedy) {
        const double score = static_cast<double>(P - bi.valid_count);
        if (score > best_score) {
          best_score = score;
          best = b;
        }
      } else if (bi.valid_count == 0) {
        // u == 0: reclamation is pure gain, so it beats any u > 0 candidate
        // outright; among several fully-invalid blocks take the coldest.
        if (best_empty == kNoBlock || bi.last_update < best_empty_update) {
          best_empty = b;
          best_empty_update = bi.last_update;
        }
      } else {
        const double u = static_cast<double>(bi.valid_count) /
                         static_cast<double>(P);
        const double age =
            static_cast<double>(now > bi.last_update ? now - bi.last_update
                                                     : 0) +
            1.0;
        const double score = (1.0 - u) / (2.0 * u) * age;
        if (score > best_score) {
          best_score = score;
          best = b;
        }
      }
    }
    if (options_.victim_policy == VictimPolicy::kCostBenefit &&
        best_empty != kNoBlock) {
      return best_empty;
    }
    return best;
  }

  const uint32_t lo = LowestVictimBucket(ds, steps);
  if (lo >= P) return kNoBlock;  // only fully-valid candidates (or none)

  if (options_.victim_policy == VictimPolicy::kGreedy) {
    return ds.bucket_head[lo];
  }

  // Cost-benefit. Exact u == 0 fast path: a fully-invalid block always wins;
  // take the coldest of them.
  if (lo == 0) {
    uint32_t best = kNoBlock;
    SimTime best_update = 0;
    for (uint32_t b = ds.bucket_head[0]; b != kNoBlock;
         b = ds.blocks[b].bucket_next) {
      (*steps)++;
      if (best == kNoBlock || ds.blocks[b].last_update < best_update) {
        best = b;
        best_update = ds.blocks[b].last_update;
      }
    }
    return best;
  }
  // Scan only actual candidates, bucket by bucket (free, active, retired and
  // fully-valid blocks never appear here).
  uint32_t best = kNoBlock;
  double best_score = -1.0;
  for (uint32_t vc = lo; vc < P; vc++) {
    const double u = static_cast<double>(vc) / static_cast<double>(P);
    for (uint32_t b = ds.bucket_head[vc]; b != kNoBlock;
         b = ds.blocks[b].bucket_next) {
      (*steps)++;
      const BlockInfo& bi = ds.blocks[b];
      const double age =
          static_cast<double>(now > bi.last_update ? now - bi.last_update : 0) +
          1.0;
      const double score = (1.0 - u) / (2.0 * u) * age;
      if (score > best_score) {
        best_score = score;
        best = b;
      }
    }
  }
  return best;
}

uint32_t OutOfPlaceMapper::PickVictim(DieState& ds, SimTime now) {
  stats_.victim_picks++;
  uint64_t steps = 0;
  const auto start = std::chrono::steady_clock::now();
  const uint32_t victim =
      PickVictimImpl(ds, now, VictimIndex::kBuckets, &steps);
  stats_.victim_pick_wall_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  stats_.victim_scan_steps += steps;
  return victim;
}

uint32_t OutOfPlaceMapper::DebugPickVictim(DieId die, SimTime now,
                                           VictimIndex index,
                                           uint64_t* steps) {
  MutexLock lock(mu_);
  if (die >= die_slot_.size() || die_slot_[die] == kNoSlot) return kNoVictim;
  uint64_t ignored = 0;
  return PickVictimImpl(StateOf(die), now, index,
                        steps != nullptr ? steps : &ignored);
}

uint32_t OutOfPlaceMapper::BlockValidCount(DieId die, BlockId block) const {
  MutexLock lock(mu_);
  if (die >= die_slot_.size() || die_slot_[die] == kNoSlot ||
      block >= StateOf(die).blocks.size()) {
    return ~0u;
  }
  return StateOf(die).blocks[block].valid_count;
}

bool OutOfPlaceMapper::StartVictim(DieState& ds, SimTime now) {
  const uint32_t victim = PickVictim(ds, now);
  if (victim == kNoBlock) return false;
  stats_.gc_runs++;
  ds.gc_victim = victim;
  ds.gc_victim_valid = ds.blocks[victim].valid_count;
  // One device-metadata lookup per victim with pages to relocate: every
  // step until the erase reuses the array (the device never reallocates a
  // block's OOB array).
  ds.gc_victim_meta = nullptr;
  if (ds.gc_victim_valid > 0) {
    ds.gc_victim_meta = device_->PeekBlockMetadata(ds.die, victim);
    stats_.gc_meta_lookups++;
  }
  return true;
}

OutOfPlaceMapper::GcVictimState OutOfPlaceMapper::DebugGcVictim(
    DieId die) const {
  MutexLock lock(mu_);
  GcVictimState state;
  if (die >= die_slot_.size() || die_slot_[die] == kNoSlot) return state;
  const DieState& ds = StateOf(die);
  if (ds.gc_victim == kNoBlock) return state;
  state.block = ds.gc_victim;
  state.valid_at_pick = ds.gc_victim_valid;
  state.valid_now = ds.blocks[ds.gc_victim].valid_count;
  return state;
}

Status OutOfPlaceMapper::ReclaimVictim(DieId die, SimTime issue) {
  DieState& ds = StateOf(die);

  if (ds.gc_victim == kNoBlock && !StartVictim(ds, issue)) {
    return Status::NoSpace("GC found no victim on die " + std::to_string(die));
  }
  const uint32_t victim = ds.gc_victim;
  uint32_t moved = 0;
  NOFTL_RETURN_IF_ERROR(
      RelocateFromVictim(ds, victim, ~0u, issue, &moved));
  NOFTL_RETURN_IF_ERROR(EraseOrRetire(die, victim, issue));
  EndVictim(ds);
  return Status::OK();
}

Status OutOfPlaceMapper::GcStep(DieId die, SimTime issue) {
  DieState& ds = StateOf(die);
  // Work only when the die is at/below the watermark, or to finish a victim
  // already being reclaimed.
  if (ds.gc_victim == kNoBlock &&
      ds.free_count > options_.gc_low_watermark) {
    return Status::OK();
  }

  // The step's relocation budget is set by the first victim it relocates
  // from: r = ceil(v / (pages_per_block - v)) pages for this host page,
  // doubled while the die is below the low watermark (see MapperOptions).
  bool paced = false;
  uint32_t budget = 0;
  while (true) {
    if (ds.gc_victim == kNoBlock) {
      if (ds.free_count > options_.gc_low_watermark) return Status::OK();
      // Nothing reclaimable right now; the host path reports NoSpace if it
      // actually runs out of blocks.
      if (!StartVictim(ds, issue)) return Status::OK();
    }
    if (ds.blocks[ds.gc_victim].valid_count == 0) {
      NOFTL_RETURN_IF_ERROR(EraseOrRetire(die, ds.gc_victim, issue));
      EndVictim(ds);
      continue;
    }
    if (!paced) {
      // Greedy and cost-benefit never pick a fully valid block; the clamp
      // only keeps the division defined.
      const uint32_t v = std::min(ds.gc_victim_valid, pages_per_block_ - 1);
      const uint32_t freed = pages_per_block_ - v;
      budget = (v + freed - 1) / freed;
      if (ds.free_count < options_.gc_low_watermark) budget *= 2;
      paced = true;
    }
    if (budget == 0) return Status::OK();
    uint32_t moved = 0;
    NOFTL_RETURN_IF_ERROR(
        RelocateFromVictim(ds, ds.gc_victim, budget, issue, &moved));
    budget -= moved;
  }
}

Status OutOfPlaceMapper::CollectDie(DieId die, SimTime issue) {
  DieState& ds = StateOf(die);
  while (ds.free_count < options_.gc_high_watermark) {
    Status s = ReclaimVictim(die, issue);
    if (s.IsNoSpace() && ds.free_count != 0) return Status::OK();
    NOFTL_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status OutOfPlaceMapper::ForceGc(SimTime issue) {
  MutexLock lock(mu_);
  for (DieId die : dies_) {
    NOFTL_RETURN_IF_ERROR(CollectDie(die, issue));
  }
  return Status::OK();
}

Status OutOfPlaceMapper::BackgroundMaintainDie(flash::DieId die, SimTime now,
                                               const BackgroundPolicy& policy,
                                               BackgroundWork* out) {
  NOFTL_ASSERT_NO_UPPER_LATCHES();
  BackgroundWork work;
  Status status = Status::OK();
  {
    MutexLock lock(mu_);
    if (die >= die_slot_.size() || die_slot_[die] == kNoSlot) {
      return Status::NotFound("die not in mapper");
    }
    DieState& ds = StateOf(die);

    // Queued scrubs drain first — they are data-safety work, not space
    // reclamation: aborted-batch orphans block the next atomic batch, and
    // read-health scrubs otherwise wait for the next read to trip over
    // them. Only this die's entries; other dies get their own grants.
    const uint64_t scrubbed_before = stats_.read_scrub_blocks;
    const size_t orphans_before = pending_scrubs_.size();
    RetryPendingScrubs(now, die);
    ProcessReadScrubs(now, die);
    work.scrub_blocks = static_cast<uint32_t>(
        (stats_.read_scrub_blocks - scrubbed_before) +
        (orphans_before - pending_scrubs_.size()));

    // Proactive GC toward the free target: same state machine as GcStep,
    // but entered above the low watermark (that is the point — reclaim on
    // idle time so the foreground path never has to) and with the grant's
    // budget instead of the victim's pace.
    const uint32_t target =
        policy.free_target != 0 ? policy.free_target
                                : options_.gc_high_watermark;
    uint32_t budget = policy.max_pages;
    while (status.ok()) {
      if (ds.gc_victim == kNoBlock) {
        if (ds.free_count >= target) break;
        if (!StartVictim(ds, now)) break;  // nothing reclaimable
      }
      if (ds.blocks[ds.gc_victim].valid_count == 0) {
        if (work.gc_erases >= policy.max_erases) {
          // Erase pacing: budget spent. The fully-relocated victim stays
          // parked (backlog) for a later grant — erases are the longest
          // flash op, so clustering them ahead of a foreground burst costs
          // more tail latency than deferring the reclamation.
          work.gc_erases_deferred++;
          work.backlog = true;
          break;
        }
        const uint32_t victim = ds.gc_victim;
        EndVictim(ds);
        status = EraseOrRetire(die, victim, now);
        if (status.ok()) work.gc_erases++;
        continue;
      }
      if (budget == 0) {
        work.backlog = true;  // victim in progress, budget exhausted
        break;
      }
      uint32_t moved = 0;
      status = RelocateFromVictim(ds, ds.gc_victim, budget, now, &moved);
      work.gc_pages += moved;
      budget -= moved;
    }

    // Background wear leveling: rotate the die's least-erased cold block
    // (static data parks on it, so it never cycles) back into the free
    // pool once its erase lag behind the most-worn free block exceeds the
    // policy's spread. One block per grant keeps the issue bounded.
    if (status.ok() && policy.wl_spread > 0) {
      uint32_t cold = kNoBlock;
      uint32_t cold_erase = ~0u;
      for (BlockId b = 0; b < data_blocks_per_die_; b++) {
        const BlockInfo& bi = ds.blocks[b];
        if (bi.is_active || bi.bad || bi.pinned != 0) continue;
        if (bi.valid_count == 0 || b == ds.gc_victim) continue;
        if (device_->NextProgramPage(die, b) < pages_per_block_) continue;
        const uint32_t ec = device_->EraseCount(die, b);
        if (ec < cold_erase) {
          cold_erase = ec;
          cold = b;
        }
      }
      if (cold != kNoBlock && ds.free_count > 0 && ds.free_max > cold_erase &&
          ds.free_max - cold_erase > policy.wl_spread) {
        const uint32_t pages = ds.blocks[cold].valid_count;
        status = ScrubBlock(die, cold, now);
        if (status.ok()) {
          work.wl_pages = pages;
          stats_.wl_migrated_pages += pages;
        }
      }
    }

    if (!work.backlog && ds.free_count < target) {
      // A victim may still exist (e.g. the WL pass just produced garbage).
      work.backlog = ds.gc_victim != kNoBlock || PickVictim(ds, now) != kNoBlock;
    }
    stats_.bg_gc_pages += work.gc_pages;
    stats_.bg_gc_erases += work.gc_erases;
    stats_.bg_scrub_blocks += work.scrub_blocks;
    stats_.bg_wl_pages += work.wl_pages;
  }
  if (out != nullptr) *out = work;
  return status;
}

uint64_t OutOfPlaceMapper::FreePages() const {
  MutexLock lock(mu_);
  const auto& geo = device_->geometry();
  uint64_t free = 0;
  for (const DieState& ds : die_states_) {
    free += static_cast<uint64_t>(ds.free_count) * geo.pages_per_block;
    if (ds.host_active != kNoBlock) {
      free +=
          geo.pages_per_block - device_->NextProgramPage(ds.die, ds.host_active);
    }
    if (ds.gc_active != kNoBlock) {
      free +=
          geo.pages_per_block - device_->NextProgramPage(ds.die, ds.gc_active);
    }
  }
  return free;
}

Status OutOfPlaceMapper::RemoveDie(DieId die, SimTime issue) {
  MutexLock lock(mu_);
  if (die >= die_slot_.size() || die_slot_[die] == kNoSlot) {
    return Status::NotFound("die not in mapper");
  }
  if (dies_.size() == 1) return Status::Busy("cannot remove the only die");
  // A departing die must not carry aborted-batch orphans: once the die is
  // out of the mapper, the pending-scrub entry is the only guard left, and
  // it is RAM-only — after a crash, nothing would stop later commits from
  // pushing the watermark past the orphans, and a future recovery over the
  // die would map them as committed data.
  RetryPendingScrubs(issue);
  for (const PendingScrub& p : pending_scrubs_) {
    if (p.die == die) {
      return Status::Busy("die holds aborted-batch orphans pending scrub");
    }
  }
  // Dead retained snapshot versions are garbage — drop them now so the
  // migration below only moves copies some live snapshot still needs.
  ReclaimRetainedLocked();

  const auto& geo = device_->geometry();
  const uint32_t slot = die_slot_[die];
  DieState& ds = die_states_[slot];

  // Check the remaining dies can absorb this die's valid pages. Space that
  // is currently garbage counts: GC reclaims it on demand during the
  // migration writes. Only valid pages and the GC reserve are off-limits.
  uint64_t die_valid = 0;
  for (const auto& bi : ds.blocks) die_valid += bi.valid_count;
  uint64_t valid_elsewhere = 0;
  for (const DieState& other : die_states_) {
    if (other.die == die) continue;
    for (const auto& bi : other.blocks) valid_elsewhere += bi.valid_count;
  }
  const uint64_t capacity_elsewhere =
      (dies_.size() - 1) * geo.pages_per_die();
  // Keep a GC reserve per remaining die.
  const uint64_t reserve = (dies_.size() - 1) *
                           static_cast<uint64_t>(options_.gc_high_watermark + 1) *
                           geo.pages_per_block;
  if (valid_elsewhere + die_valid + reserve > capacity_elsewhere) {
    return Status::NoSpace("remaining dies cannot absorb die data");
  }

  // Take the die out of the write stripe before migrating.
  dies_.erase(std::find(dies_.begin(), dies_.end(), die));
  write_cursor_ = 0;

  // Relocate every valid page: cross-die, so read + program (no copyback).
  // The source reads of each block go out as one vectored submission — they
  // serialize on the departing die anyway, but the batch overlaps them with
  // the programs landing on the *other* dies' busy horizons, and it
  // amortizes the per-op dispatch. Programs stay per-page: each needs a
  // fresh slot from PrepareHostSlot (which may run GC on the target die).
  std::vector<PageId> pages;
  std::vector<uint64_t> lpns;
  std::vector<flash::PageReadOp> read_ops;
  std::vector<flash::OpResult> read_results;
  std::vector<char> buf;
  for (BlockId b = 0; b < geo.blocks_per_die; b++) {
    BlockInfo& bi = ds.blocks[b];
    if (bi.valid_count == 0) continue;
    pages.clear();
    lpns.clear();
    const size_t base = static_cast<size_t>(b) * words_per_block_;
    for (uint32_t w = 0; w < words_per_block_; w++) {
      uint64_t word = ds.valid_bits[base + w];
      while (word != 0) {
        const uint32_t bit = static_cast<uint32_t>(std::countr_zero(word));
        word &= word - 1;
        const PageId p = w * kWordBits + bit;
        pages.push_back(p);
        lpns.push_back(BackOf(ds, b, p));
      }
    }
    buf.resize(pages.size() * static_cast<size_t>(geo.page_size));
    read_ops.clear();
    for (size_t k = 0; k < pages.size(); k++) {
      read_ops.push_back({{die, b, pages[k]},
                          buf.data() + k * static_cast<size_t>(geo.page_size),
                          nullptr});
    }
    read_results.resize(read_ops.size());
    device_->ReadPages(read_ops.data(), read_ops.size(), issue,
                       OpOrigin::kWearLevel, read_results.data());
    for (const auto& rr : read_results) {
      if (!rr.ok()) return rr.status;
    }
    for (size_t k = 0; k < pages.size(); k++) {
      const PageId p = pages[k];
      const uint64_t lpn = lpns[k];
      // Like GC relocation: the OOB metadata (version, object id, batch
      // markers) moves with the page verbatim; only the commit watermark
      // is refreshed.
      flash::PageMetadata meta = device_->PeekMetadata({die, b, p});
      assert(meta.logical_id == lpn);
      meta.committed_upto = std::max(meta.committed_upto, committed_batches_);

      const DieId target = PickWriteDie(issue, /*avoid_throttled=*/false);
      PhysAddr target_slot;
      NOFTL_RETURN_IF_ERROR(PrepareHostSlot(target, issue, &target_slot));
      flash::OpResult pr = device_->ProgramPage(
          target_slot, issue, OpOrigin::kWearLevel,
          buf.data() + k * static_cast<size_t>(geo.page_size), meta);
      if (!pr.ok()) return pr.status;

      // A valid page not referenced by the live mapping is a retained
      // snapshot version: migrate its chain entry, not l2p_.
      RetainedVersion* retained = !(l2p_[lpn] == PhysAddr{die, b, p})
                                      ? FindRetained(lpn, {die, b, p})
                                      : nullptr;
      MarkInvalid(ds, b, p);
      if (retained != nullptr) {
        MarkValid(StateOf(target), target_slot.block, target_slot.page, lpn);
        retained->addr = target_slot;
      } else {
        Map(lpn, target_slot);
        MarkDirtyLpn(lpn);
      }
      StateOf(target).blocks[target_slot.block].last_update = pr.complete;
      stats_.wl_migrated_pages++;
      // Keep GC pacing on the receiving die during the migration burst.
      NOFTL_RETURN_IF_ERROR(GcStep(target, pr.complete));
    }
  }

  // Erase any programmed blocks so the die leaves clean for its next owner.
  // Blocks whose erase fails are simply left behind — the next owner's
  // AddDie refuses dirty dies, so callers must not re-add a die with
  // failing blocks.
  for (BlockId b = 0; b < geo.blocks_per_die; b++) {
    if (device_->NextProgramPage(die, b) > 0) {
      flash::OpResult er =
          device_->EraseBlock(die, b, issue, OpOrigin::kWearLevel);
      if (!er.ok() && !er.status.IsIOError() && !er.status.IsWornOut()) {
        return er.status;
      }
    }
  }

  // Drop the die's state: swap-remove the dense slot and fix the table.
  die_slot_[die] = kNoSlot;
  if (slot + 1 != die_states_.size()) {
    die_states_[slot] = std::move(die_states_.back());
    die_slot_[die_states_[slot].die] = slot;
  }
  die_states_.pop_back();
  // Checkpoints taken over the old die set no longer validate (the image
  // records its die set); new ones stripe over the remaining dies.
  if (ckpt_ != nullptr) ckpt_->SetDies(dies_);
  return Status::OK();
}

Status OutOfPlaceMapper::AddDie(DieId die) {
  MutexLock lock(mu_);
  if (die >= die_slot_.size()) {
    return Status::InvalidArgument("die outside device geometry");
  }
  if (die_slot_[die] != kNoSlot) {
    return Status::AlreadyExists("die already in mapper");
  }
  const auto& geo = device_->geometry();
  for (BlockId b = 0; b < geo.blocks_per_die; b++) {
    if (device_->NextProgramPage(die, b) != 0) {
      return Status::InvalidArgument("die must arrive erased");
    }
  }
  die_slot_[die] = static_cast<uint32_t>(die_states_.size());
  die_states_.emplace_back();
  InitDieState(&die_states_.back(), die);
  dies_.push_back(die);
  if (ckpt_ != nullptr) ckpt_->SetDies(dies_);
  return Status::OK();
}

Result<std::unique_ptr<OutOfPlaceMapper>> OutOfPlaceMapper::RecoverFromDevice(
    flash::FlashDevice* device, std::vector<DieId> dies,
    uint64_t logical_pages, const MapperOptions& options, SimTime issue,
    SimTime* complete) {
  return Recover(device, std::move(dies), logical_pages, options, issue,
                 complete, /*via_checkpoint=*/true);
}

Result<std::unique_ptr<OutOfPlaceMapper>>
OutOfPlaceMapper::DebugRecoverByFullScan(flash::FlashDevice* device,
                                         std::vector<DieId> dies,
                                         uint64_t logical_pages,
                                         const MapperOptions& options,
                                         SimTime issue, SimTime* complete) {
  return Recover(device, std::move(dies), logical_pages, options, issue,
                 complete, /*via_checkpoint=*/false);
}

Result<std::unique_ptr<OutOfPlaceMapper>> OutOfPlaceMapper::Recover(
    flash::FlashDevice* device, std::vector<DieId> dies,
    uint64_t logical_pages, const MapperOptions& options, SimTime issue,
    SimTime* complete, bool via_checkpoint) {
  auto mapper = std::unique_ptr<OutOfPlaceMapper>(
      new OutOfPlaceMapper(device, std::move(dies), logical_pages, options));
  // Hold the fresh mapper's latch for the whole rebuild. The mapper is not
  // published yet, but the rebuild drives the same REQUIRES(mu_) helpers and
  // direct member writes as normal operation — running them unlatched was
  // exactly the kind of hole this annotation pass exists to close.
  MutexLock rebuild_lock(mapper->mu_);
  const auto& geo = device->geometry();
  SimTime done = issue;

  // Pass 0: with checkpointing enabled, load the newest on-flash checkpoint
  // that validates (complete payload, matching CRC, same die set and
  // logical size). A valid image replaces the full OOB scan with a *delta*
  // scan over only the blocks the device mutated after the snapshot —
  // torn or stale checkpoints are discarded and recovery degrades to the
  // older epoch, then to the full scan.
  CheckpointImage img;
  bool from_ckpt = false;
  uint64_t epoch_hint = 0;
  if (mapper->ckpt_ != nullptr) {
    if (via_checkpoint) {
      auto loaded = mapper->ckpt_->LoadNewest(issue, &done, &epoch_hint);
      if (loaded.ok() && loaded->logical_pages == logical_pages &&
          loaded->dies == mapper->dies_) {
        img = std::move(*loaded);
        from_ckpt = true;
      }
    } else {
      // Full scan forced: still read the slot headers so checkpoints
      // written after this recovery keep their epochs monotonic.
      epoch_hint = mapper->ckpt_->NewestEpochHint(issue, &done);
    }
  }

  // Pass 1: rebuild the free pools and collect OOB metadata — of every
  // programmed page (full scan), or only of pages in blocks whose mutation
  // stamp postdates the checkpoint (delta scan). The OOB reads of each die
  // form an independent stream issued at `issue` and never touch a channel,
  // so the simulated scan cost is the *max* over the dies' scan times, not
  // their sum.
  struct Seen {
    flash::PageMetadata meta;
    PhysAddr addr;
  };
  std::vector<Seen> seen;
  for (DieId die : mapper->dies_) {
    DieState& ds = mapper->StateOf(die);
    mapper->FreeClear(ds);
    std::vector<BlockId> untouched;
    for (BlockId b = 0; b < mapper->data_blocks_per_die_; b++) {
      const PageId programmed = device->NextProgramPage(die, b);
      if (programmed == 0) {
        untouched.push_back(b);
        continue;
      }
      if (from_ckpt && device->BlockMutationSeq(die, b) <= img.device_seq) {
        continue;  // provably unchanged since the snapshot: the image vouches
      }
      for (PageId p = 0; p < programmed; p++) {
        flash::PageMetadata meta;
        flash::OpResult r =
            device->ReadOob({die, b, p}, issue, OpOrigin::kMeta, &meta);
        if (!r.ok()) return r.status;
        done = std::max(done, r.complete);
        mapper->stats_.recovery_pages_scanned++;
        if (meta.logical_id == flash::PageMetadata::kUnset ||
            meta.logical_id >= logical_pages) {
          continue;  // padding, burned page, or foreign data
        }
        seen.push_back({meta, {die, b, p}});
      }
    }
    // Push in descending id order so allocation hands out ascending ids,
    // matching a fresh mapper (see InitDieState).
    for (auto it = untouched.rbegin(); it != untouched.rend(); ++it) {
      mapper->FreePush(ds, *it);
    }
  }

  // Pass 2: highest version per logical page wins, except pages of *torn*
  // atomic batches. Two on-flash signals classify a batch:
  //   * the commit watermark: every program stamps the highest batch id
  //     committed so far, so any batch at or below the recovered watermark
  //     certainly committed — even if GC has since erased superseded
  //     batch-marked copies and the surviving count dropped below
  //     batch_size (GC relocation preserves batch markers, so erosion only
  //     happens through supersession, and the superseding program stamped
  //     the watermark). A loaded checkpoint raises the base watermark to
  //     its recorded value — every batch it maps had committed by then;
  //   * the member count: a batch above the watermark with fewer *distinct*
  //     surviving members than its declared size is torn. Distinct
  //     logical ids, not raw copies: GC relocation preserves batch markers
  //     verbatim, so duplicate copies of one member (original + relocated)
  //     must not mask another member that is missing entirely. Version
  //     comparisons are deliberately NOT used as commit evidence: the
  //     abort path bumps versions_ past its orphans, so a post-abort plain
  //     write of a member is strictly newer without any commit having
  //     happened — and any copy that could genuinely testify (a
  //     post-commit program) already stamps committed_upto >= the batch
  //     id, i.e. is subsumed by the watermark.
  // Aborted phase-1 batches are scrubbed at failure time (and new batches
  // refuse to commit while a scrub is pending), so batch ids above the
  // watermark normally belong to the one batch in flight at the crash (ids
  // are issued sequentially). Batches fully committed before the
  // checkpoint need no counting at all: their pages sit in unchanged
  // blocks the delta scan skips, and the checkpointed watermark vouches
  // for them.
  uint64_t watermark = from_ckpt ? img.committed_batches : 0;
  uint64_t max_batch = 0;
  for (const auto& s : seen) {
    watermark = std::max(watermark, s.meta.committed_upto);
    max_batch = std::max(max_batch, s.meta.batch_id);
  }
  std::map<uint64_t, std::pair<std::set<uint64_t>, uint32_t>>
      batches;  // id -> (distinct members, declared size)
  for (const auto& s : seen) {
    if (s.meta.batch_id == 0) continue;
    auto& entry = batches[s.meta.batch_id];
    entry.first.insert(s.meta.logical_id);
    entry.second = s.meta.batch_size;
  }
  std::set<uint64_t> torn;
  for (const auto& [id, entry] : batches) {
    if (id > watermark && entry.first.size() < entry.second) torn.insert(id);
  }

  // Versions start from the checkpointed counters (they already run past
  // any pre-checkpoint aborted-batch orphans) and rise with every rescanned
  // copy below.
  if (from_ckpt) mapper->versions_ = std::move(img.versions);

  // Seed the winner map with the checkpointed mappings that provably still
  // hold: entries whose block is unchanged since the snapshot. Entries in
  // mutated blocks are dropped — if the copy survived (e.g. the block's
  // tail was merely extended) or was relocated, the delta scan re-found it.
  // Each surviving entry competes at its true on-flash version (see
  // CheckpointImage::version_overrides), so the version/address tie-break
  // against rescanned copies resolves exactly as a full scan would.
  std::map<uint64_t, Seen> best;
  if (from_ckpt) {
    std::map<uint64_t, uint64_t> overrides(img.version_overrides.begin(),
                                           img.version_overrides.end());
    for (uint64_t lpn = 0; lpn < logical_pages; lpn++) {
      if (img.l2p[lpn] == CheckpointImage::kUnmappedPacked) continue;
      const PhysAddr addr = CheckpointImage::UnpackAddr(img.l2p[lpn]);
      if (device->BlockMutationSeq(addr.die, addr.block) > img.device_seq) {
        continue;
      }
      Seen s;
      s.addr = addr;
      s.meta.logical_id = lpn;
      const auto ov = overrides.find(lpn);
      s.meta.version =
          ov != overrides.end() ? ov->second : mapper->versions_[lpn];
      // lpns ascend, so hinting at end() makes each insert amortized O(1)
      // instead of an O(log n) tree descent per mapped page.
      best.emplace_hint(best.end(), lpn, s);
    }
  }
  for (const auto& s : seen) {
    // Track the version high-water mark for every surviving copy — torn
    // pages included: should a torn orphan outlive the pass-5 scrub below
    // (worn-out erase), future writes of its lpn must still come out
    // strictly newer, exactly like ScrubAbortedBatch's version bump on the
    // runtime path.
    mapper->versions_[s.meta.logical_id] =
        std::max(mapper->versions_[s.meta.logical_id], s.meta.version);
    if (s.meta.batch_id != 0 && torn.count(s.meta.batch_id) != 0) {
      continue;  // page of an interrupted batch: never committed
    }
    auto it = best.find(s.meta.logical_id);
    const bool better =
        it == best.end() || s.meta.version > it->second.meta.version ||
        (s.meta.version == it->second.meta.version &&
         std::tie(s.addr.die, s.addr.block, s.addr.page) >
             std::tie(it->second.addr.die, it->second.addr.block,
                      it->second.addr.page));
    if (better) best[s.meta.logical_id] = s;
  }
  for (const auto& [lpn, s] : best) {
    mapper->Map(lpn, s.addr);
  }
  // Future batch ids must clear everything on flash (a reused id would
  // corrupt the member counts of the next recovery) and the watermark must
  // keep testifying for every batch recovered as committed. A checkpoint
  // additionally remembers ids of aborted batches whose orphans were fully
  // scrubbed — invisible to any scan — so those are never reused either.
  mapper->committed_batches_ = watermark;
  for (const auto& [id, entry] : batches) {
    if (torn.count(id) == 0) {
      mapper->committed_batches_ = std::max(mapper->committed_batches_, id);
    }
  }
  mapper->next_batch_id_ =
      std::max(max_batch, mapper->committed_batches_) + 1;
  if (from_ckpt) {
    mapper->next_batch_id_ =
        std::max(mapper->next_batch_id_, img.next_batch_id);
  }
  mapper->checkpoint_epoch_ = std::max(from_ckpt ? img.epoch : 0, epoch_hint);
  mapper->newest_valid_ckpt_epoch_ = from_ckpt ? img.epoch : 0;
  mapper->stats_.recovery_ckpt_epoch = from_ckpt ? img.epoch : 0;

  // Pass 3: adopt partially-programmed blocks as the append points (they
  // were the active blocks before the crash); pad any extras so they become
  // regular GC candidates.
  for (DieId die : mapper->dies_) {
    DieState& ds = mapper->StateOf(die);
    for (BlockId b = 0; b < mapper->data_blocks_per_die_; b++) {
      const PageId programmed = device->NextProgramPage(die, b);
      if (programmed == 0 || programmed >= geo.pages_per_block) continue;
      if (ds.host_active == kNoBlock) {
        ds.host_active = b;
        ds.blocks[b].is_active = true;
      } else if (ds.gc_active == kNoBlock) {
        ds.gc_active = b;
        ds.blocks[b].is_active = true;
      } else {
        for (PageId p = programmed; p < geo.pages_per_block; p++) {
          (void)device->ProgramPage({die, b, p}, done, OpOrigin::kMeta,
                                    nullptr, flash::PageMetadata{});
        }
      }
    }
  }

  // Pass 4: index every fully-programmed non-active block as a GC candidate.
  for (DieState& ds : mapper->die_states_) {
    for (BlockId b = 0; b < mapper->data_blocks_per_die_; b++) {
      if (ds.blocks[b].is_active) continue;
      if (device->NextProgramPage(ds.die, b) < geo.pages_per_block) continue;
      mapper->BucketInsert(ds, b);
    }
  }

  // Pass 5: scrub the blocks holding torn-batch pages, plus any scrubs the
  // checkpoint recorded as still pending (aborted-batch orphans in blocks
  // the delta scan skipped). Left on flash, those pages would become
  // eligible at the *next* recovery as soon as a later batch pushes the
  // watermark past their id.
  {
    std::vector<PendingScrub> scrub;
    if (from_ckpt) {
      for (const auto& e : img.pending_scrubs) {
        if (e.die >= mapper->die_slot_.size() ||
            mapper->die_slot_[e.die] == kNoSlot) {
          continue;
        }
        if (mapper->BlockHoldsBatchPages(e.die, e.block, e.batch_id)) {
          scrub.push_back({e.die, e.block, e.batch_id});
        }
      }
    }
    for (const auto& s : seen) {
      if (torn.count(s.meta.batch_id) != 0) {
        scrub.push_back({s.addr.die, s.addr.block, s.meta.batch_id});
      }
    }
    if (!scrub.empty()) {
      mapper->ScrubBlocksBestEffort(std::move(scrub), done);
    }
  }

  if (complete != nullptr) *complete = done;
  return mapper;
}

CheckpointImage OutOfPlaceMapper::BuildCheckpointImage() const {
  CheckpointImage img;
  img.epoch = checkpoint_epoch_ + 1;
  img.device_seq = device_->mutation_seq();
  img.logical_pages = logical_pages_;
  img.dies = dies_;
  img.committed_batches = committed_batches_;
  img.next_batch_id = next_batch_id_;
  img.versions = versions_;
  img.l2p.assign(logical_pages_, CheckpointImage::kUnmappedPacked);
  for (uint64_t lpn = 0; lpn < logical_pages_; lpn++) {
    if (l2p_[lpn].die == kUnmappedDie) continue;
    img.l2p[lpn] = CheckpointImage::PackAddr(l2p_[lpn]);
    // The RAM version counter can run ahead of the mapped copy's on-flash
    // version (ScrubAbortedBatch advances it past orphan copies). Recovery
    // must weigh the checkpointed mapping at its true on-flash version, so
    // record the rare divergences explicitly.
    const uint64_t on_flash = device_->PeekMetadata(l2p_[lpn]).version;
    if (on_flash != versions_[lpn]) {
      img.version_overrides.push_back({lpn, on_flash});
    }
  }
  img.pending_scrubs.reserve(pending_scrubs_.size());
  for (const auto& p : pending_scrubs_) {
    img.pending_scrubs.push_back({p.die, p.block, p.batch_id});
  }
  return img;
}

Status OutOfPlaceMapper::WriteCheckpointInternal(SimTime issue,
                                                 uint64_t max_pages,
                                                 SimTime* complete) {
  if (ckpt_ == nullptr) {
    if (complete != nullptr) *complete = issue;
    return Status::OK();
  }
  // Quiesce: finish any half-reclaimed GC victim first. Mid-reclamation, a
  // victim still holds already-relocated copies at the *same* version as
  // their new location; once those blocks go unmutated past the snapshot,
  // the delta scan would skip them while a full scan still sees the tied
  // copies — the one case where the two recovery paths could diverge on the
  // address tie-break. Completing the reclamation (relocate rest + erase)
  // removes the ties; it is ordinary GC work the die owed anyway.
  for (DieState& ds : die_states_) {
    if (ds.gc_victim != kNoBlock) {
      NOFTL_RETURN_IF_ERROR(ReclaimVictim(ds.die, issue));
    }
  }
  CheckpointImage img = BuildCheckpointImage();
  // Write a delta instead of a full image when a valid full base exists on
  // flash, the dirty set is small enough to be worth it, and there are
  // enough slots to keep base, newest delta and the slot being written
  // apart (kMinDeltaCheckpointSlots). Deltas are cumulative since the
  // *base* — overwriting an older delta with a newer one keeps the chain
  // length at exactly base + newest delta.
  const bool incr = ckpt_->slots() >= kMinDeltaCheckpointSlots &&
                    base_full_epoch_ != 0 &&
                    newest_valid_ckpt_epoch_ >= base_full_epoch_ &&
                    dirty_count_ * 100 <=
                        logical_pages_ * kIncrCheckpointMaxDirtyPct;
  // Never target a load-bearing slot: the one holding the newest *valid*
  // checkpoint, and — while an on-flash delta (or the one about to be
  // written) depends on it — the slot holding the base full image. In
  // steady state epoch+1 always lands elsewhere, but after recovering past
  // a torn epoch the hint can run ahead of the newest valid image (e.g.
  // valid epoch 5 in slot 1, torn epoch 6 in slot 0, next epoch 7 ->
  // slot 1): writing there would erase the only fallback while the torn
  // slot still holds garbage. Skipping forward to a non-colliding epoch
  // keeps the >= 2-slot guarantee — a crash mid-write always leaves the
  // previous valid epoch intact.
  if (ckpt_->slots() > 1 && newest_valid_ckpt_epoch_ > 0) {
    const uint64_t slots = ckpt_->slots();
    const uint64_t newest_slot = newest_valid_ckpt_epoch_ % slots;
    uint64_t base_slot = newest_slot;  // == "no extra protection"
    if (base_full_epoch_ != 0 &&
        (incr || newest_valid_ckpt_epoch_ > base_full_epoch_)) {
      base_slot = base_full_epoch_ % slots;
    }
    while (img.epoch % slots == newest_slot ||
           img.epoch % slots == base_slot) {
      img.epoch++;
    }
  }
  if (incr) {
    img.kind = CheckpointImage::kIncremental;
    img.base_epoch = base_full_epoch_;
    img.dirty.reserve(dirty_count_);
    for (uint64_t w = 0; w < dirty_words_.size(); w++) {
      uint64_t bits = dirty_words_[w];
      while (bits != 0) {
        const uint64_t lpn =
            w * kWordBits + static_cast<uint64_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (lpn >= logical_pages_) break;
        img.dirty.push_back({lpn, img.l2p[lpn], img.versions[lpn]});
      }
    }
    // A delta's overrides cover exactly its dirty lpns (non-dirty lpns kept
    // neither mapping nor version changes since base, so the base image's
    // override state for them still holds and carries over at load).
    std::erase_if(img.version_overrides, [&](const auto& ov) {
      const uint64_t word = ov.first / kWordBits;
      return word >= dirty_words_.size() ||
             (dirty_words_[word] & (uint64_t{1} << (ov.first % kWordBits))) ==
                 0;
    });
    img.l2p.clear();
    img.versions.clear();
  }
  SimTime done = issue;
  uint64_t bytes = 0;
  NOFTL_RETURN_IF_ERROR(ckpt_->Write(img, issue, &done, max_pages, &bytes));
  checkpoint_epoch_ = img.epoch;
  // A torn debug write simulates a crash: it never counts as valid.
  if (max_pages == ~0ull) {
    newest_valid_ckpt_epoch_ = img.epoch;
    if (img.kind == CheckpointImage::kFull) {
      base_full_epoch_ = img.epoch;
      std::fill(dirty_words_.begin(), dirty_words_.end(), 0);
      dirty_count_ = 0;
    }
    // After a delta the dirty set keeps accumulating: every delta carries
    // all changes since the base, not since the previous delta.
  }
  stats_.checkpoints_written++;
  if (img.kind == CheckpointImage::kIncremental) {
    stats_.ckpt_incr_written++;
    stats_.ckpt_bytes_incr += bytes;
  } else {
    stats_.ckpt_bytes_full += bytes;
  }
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

Status OutOfPlaceMapper::WriteCheckpoint(SimTime issue, SimTime* complete) {
  MutexLock lock(mu_);
  return WriteCheckpointInternal(issue, ~0ull, complete);
}

Status OutOfPlaceMapper::DebugWriteTornCheckpoint(SimTime issue,
                                                  uint64_t max_pages,
                                                  SimTime* complete) {
  MutexLock lock(mu_);
  if (ckpt_ == nullptr) {
    return Status::InvalidArgument("checkpointing disabled");
  }
  return WriteCheckpointInternal(issue, max_pages, complete);
}

void OutOfPlaceMapper::MaybeAutoCheckpoint(uint64_t new_writes, SimTime now) {
  if (ckpt_ == nullptr || options_.checkpoint_interval_writes == 0) return;
  writes_since_checkpoint_ += new_writes;
  if (writes_since_checkpoint_ < options_.checkpoint_interval_writes) return;
  // Best effort: a failed periodic checkpoint (worn slot blocks, oversized
  // image) leaves the older epochs usable and is retried next interval.
  writes_since_checkpoint_ = 0;
  Status s = WriteCheckpointInternal(now, ~0ull, nullptr);
  if (!s.ok()) {
    NOFTL_LOG_WARN("periodic mapper checkpoint failed: %s",
                   s.ToString().c_str());
  }
}

double OutOfPlaceMapper::AvgEraseCount() const {
  MutexLock lock(mu_);
  uint64_t sum = 0;
  uint64_t n = 0;
  const auto& geo = device_->geometry();
  for (const DieState& ds : die_states_) {
    for (BlockId b = 0; b < geo.blocks_per_die; b++) {
      sum += device_->EraseCount(ds.die, b);
      n++;
    }
  }
  return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

Status OutOfPlaceMapper::VerifyIntegrity() const {
  MutexLock lock(mu_);
  const auto& geo = device_->geometry();
  const uint32_t P = pages_per_block_;

  // The die->slot table and the dense state array must be inverse maps, and
  // the stripe list must agree with them.
  uint32_t slots_used = 0;
  for (uint32_t die = 0; die < die_slot_.size(); die++) {
    if (die_slot_[die] == kNoSlot) continue;
    slots_used++;
    if (die_slot_[die] >= die_states_.size() ||
        die_states_[die_slot_[die]].die != die) {
      return Status::Corruption("die slot table drift");
    }
  }
  if (slots_used != die_states_.size() || dies_.size() != die_states_.size()) {
    return Status::Corruption("die slot table size drift");
  }
  for (DieId die : dies_) {
    if (die >= die_slot_.size() || die_slot_[die] == kNoSlot) {
      return Status::Corruption("stripe die without state");
    }
  }

  // Every mapped lpn must point at a valid physical page whose back pointer
  // returns to the lpn.
  uint64_t live = 0;
  for (uint64_t lpn = 0; lpn < logical_pages_; lpn++) {
    const PhysAddr a = l2p_[lpn];
    if (a.die == kUnmappedDie) continue;
    live++;
    if (a.die >= die_slot_.size() || die_slot_[a.die] == kNoSlot) {
      return Status::Corruption("l2p points at foreign die");
    }
    const DieState& ds = StateOf(a.die);
    if (!TestValid(ds, a.block, a.page)) {
      return Status::Corruption("l2p points at invalid page");
    }
    if (BackOf(ds, a.block, a.page) != lpn) {
      return Status::Corruption("p2l back pointer mismatch");
    }
    if (device_->GetPageState(a) != flash::PageState::kProgrammed) {
      return Status::Corruption("mapped page not programmed");
    }
  }
  // Retained snapshot versions (MVCC): every chain entry must reference a
  // valid, programmed page back-pointing to its lpn and distinct from the
  // live mapping; entries cover a nonempty sequence interval in increasing
  // order; and no entry may outlive the published horizon — after the last
  // snapshot that could read it is released, a lingering entry is a leak
  // (Release reclaims eagerly, GC lazily, so a quiesced mapper holds none).
  uint64_t retained_seen = 0;
  for (const auto& [lpn, chain] : retained_) {
    if (chain.empty()) return Status::Corruption("empty retained chain");
    if (lpn >= logical_pages_) {
      return Status::Corruption("retained chain for out-of-range lpn");
    }
    uint64_t prev_seq = 0;
    for (const RetainedVersion& rv : chain) {
      retained_seen++;
      if (rv.seq >= rv.next_seq) {
        return Status::Corruption("retained version interval inverted");
      }
      if (&rv != &chain.front() && rv.seq <= prev_seq) {
        return Status::Corruption("retained chain out of order");
      }
      prev_seq = rv.seq;
      const PhysAddr a = rv.addr;
      if (a.die >= die_slot_.size() || die_slot_[a.die] == kNoSlot) {
        return Status::Corruption("retained version on foreign die");
      }
      const DieState& ds = StateOf(a.die);
      if (!TestValid(ds, a.block, a.page)) {
        return Status::Corruption("retained version page not valid");
      }
      if (BackOf(ds, a.block, a.page) != lpn) {
        return Status::Corruption("retained version back pointer mismatch");
      }
      if (l2p_[lpn] == a) {
        return Status::Corruption("retained version aliases live mapping");
      }
      if (device_->GetPageState(a) != flash::PageState::kProgrammed) {
        return Status::Corruption("retained version page not programmed");
      }
      if (options_.snapshots == nullptr ||
          !options_.snapshots->MayBeLive(rv.seq, rv.next_seq)) {
        return Status::Corruption(
            "retained version unreadable by any live snapshot (leak)");
      }
    }
  }
  if (retained_seen != retained_count_) {
    return Status::Corruption("retained version count drift");
  }
  if (live + retained_count_ != total_valid_) {
    return Status::Corruption("valid page count drift");
  }
  // Incremental-checkpoint dirty bitmap: the distinct-lpn counter must match
  // the packed bits.
  if (!dirty_words_.empty()) {
    uint64_t dirty = 0;
    for (uint64_t w : dirty_words_) {
      dirty += static_cast<uint64_t>(std::popcount(w));
    }
    if (dirty != dirty_count_) {
      return Status::Corruption("dirty lpn count drift");
    }
  }

  for (const DieState& ds : die_states_) {
    // Free pools: each entry erased, in the bucket of its erase count, flag
    // state clean; hints never skip a populated bucket.
    std::vector<uint8_t> in_free(geo.blocks_per_die, 0);
    uint64_t free_total = 0;
    for (uint32_t ec = 0; ec < ds.free_buckets.size(); ec++) {
      for (uint32_t b : ds.free_buckets[ec]) {
        if (b >= data_blocks_per_die_ || in_free[b]) {
          return Status::Corruption("free pool entry invalid or duplicated");
        }
        in_free[b] = 1;
        free_total++;
        if (device_->EraseCount(ds.die, b) != ec) {
          return Status::Corruption("free pool wear bucket drift");
        }
        if (device_->NextProgramPage(ds.die, b) != 0) {
          return Status::Corruption("free block not erased");
        }
        const BlockInfo& bi = ds.blocks[b];
        if (bi.is_active || bi.bad || bi.in_bucket || bi.valid_count != 0 ||
            bi.pinned != 0) {
          return Status::Corruption("free block with stale state");
        }
      }
      if (!ds.free_buckets[ec].empty() &&
          (ec < ds.free_min || ec > ds.free_max)) {
        return Status::Corruption("free pool hint skips a populated bucket");
      }
    }
    if (free_total != ds.free_count) {
      return Status::Corruption("free pool count drift");
    }

    // Candidate buckets: doubly-linked lists consistent, each block in the
    // bucket of its valid_count, min_bucket never above a populated bucket.
    std::vector<uint8_t> in_list(geo.blocks_per_die, 0);
    for (uint32_t vc = 0; vc <= P; vc++) {
      uint32_t prev = kNoBlock;
      uint32_t walked = 0;
      for (uint32_t b = ds.bucket_head[vc]; b != kNoBlock;
           b = ds.blocks[b].bucket_next) {
        if (b >= data_blocks_per_die_ || ++walked > geo.blocks_per_die) {
          return Status::Corruption("candidate bucket list corrupt");
        }
        const BlockInfo& bi = ds.blocks[b];
        if (!bi.in_bucket || bi.valid_count != vc || bi.bucket_prev != prev ||
            in_list[b]) {
          return Status::Corruption("candidate bucket link drift");
        }
        in_list[b] = 1;
        prev = b;
      }
      if (vc < ds.min_bucket && ds.bucket_head[vc] != kNoBlock) {
        return Status::Corruption("min bucket hint skips candidates");
      }
    }

    // Active append points must carry the flag; nothing else may.
    if (ds.host_active != kNoBlock && !ds.blocks[ds.host_active].is_active) {
      return Status::Corruption("host active block not flagged active");
    }
    if (ds.gc_active != kNoBlock && !ds.blocks[ds.gc_active].is_active) {
      return Status::Corruption("gc active block not flagged active");
    }

    // Per-block: packed bitmap popcount matches valid_count, tail bits are
    // clear, every valid page back-points into the mapped space, and bucket
    // membership matches the candidate predicate exactly.
    for (BlockId b = 0; b < geo.blocks_per_die; b++) {
      const BlockInfo& bi = ds.blocks[b];
      if (b >= data_blocks_per_die_) {
        // Reserved checkpoint block: the mapper must hold no state for it
        // (the checkpoint store programs it behind the mapper's back).
        if (bi.is_active || bi.in_bucket || bi.valid_count != 0 ||
            bi.pinned != 0 || bi.bad) {
          return Status::Corruption("reserved checkpoint block with state");
        }
        continue;
      }
      if (bi.is_active && b != ds.host_active && b != ds.gc_active) {
        return Status::Corruption("stray active flag");
      }
      uint32_t cnt = 0;
      for (uint32_t w = 0; w < words_per_block_; w++) {
        const uint64_t word =
            ds.valid_bits[static_cast<size_t>(b) * words_per_block_ + w];
        cnt += static_cast<uint32_t>(std::popcount(word));
        const uint32_t first_page = w * kWordBits;
        if (first_page + kWordBits > P) {
          const uint64_t tail_mask =
              P > first_page ? ~((uint64_t{1} << (P - first_page)) - 1)
                             : ~uint64_t{0};
          if ((word & tail_mask) != 0) {
            return Status::Corruption("bitmap tail bits set");
          }
        }
      }
      if (cnt != bi.valid_count) {
        return Status::Corruption("block valid_count drift");
      }
      for (PageId p = 0; p < P; p++) {
        if (!TestValid(ds, b, p)) {
          if (BackOf(ds, b, p) != kUnmappedLpn) {
            return Status::Corruption("invalid page with back pointer");
          }
          continue;
        }
        const uint64_t lpn = BackOf(ds, b, p);
        if (lpn == kUnmappedLpn || lpn >= logical_pages_) {
          return Status::Corruption("valid page with bad back pointer");
        }
        if (!(l2p_[lpn] == PhysAddr{ds.die, b, p})) {
          // Not the live copy: it must be a retained snapshot version.
          bool retained_ref = false;
          auto rit = retained_.find(lpn);
          if (rit != retained_.end()) {
            for (const RetainedVersion& rv : rit->second) {
              if (rv.addr == PhysAddr{ds.die, b, p}) {
                retained_ref = true;
                break;
              }
            }
          }
          if (!retained_ref) {
            return Status::Corruption(
                "valid page not referenced by l2p or a retained chain");
          }
        }
      }
      const bool candidate =
          !bi.is_active && !in_free[b] && bi.pinned == 0 &&
          device_->NextProgramPage(ds.die, b) >= P &&
          !(bi.bad && bi.valid_count == 0);
      if (candidate != bi.in_bucket) {
        return Status::Corruption("candidate bucket membership drift");
      }
      if (bi.in_bucket && !in_list[b]) {
        return Status::Corruption("block marked in_bucket but not linked");
      }
    }
  }
  return Status::OK();
}

}  // namespace noftl::ftl
