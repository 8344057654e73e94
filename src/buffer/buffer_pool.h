// Buffer manager with background flushers (paper Figure 1).
//
// Fixed frame pool, CLOCK eviction, pin counts, dirty tracking. Misses read
// through the storage backend synchronously (the transaction waits). Dirty
// pages are normally written by the *flushers*: whenever the dirty fraction
// crosses a watermark, a batch of dirty unpinned pages is written out in the
// background — the writes occupy flash dies (raising queueing delay, which
// is how write pressure hurts read latency) but no transaction waits on
// them. Only when eviction finds nothing clean does a transaction pay a
// synchronous write.
//
// Multi-page misses go through FetchPages: all absent pages of the request
// are read in one batched submission, so a transaction that needs N pages
// from distinct dies waits for the slowest die, not the sum of N reads.
// Dirty write-back (background and FlushAll) is batched the same way.
//
// The page table is an open-addressing (linear-probe) frame table rather
// than std::unordered_map: one flat array, no per-node allocation, and the
// common hit probes one or two adjacent slots.
//
// Thread safety: the pool is guarded by one reader-writer latch. The hit
// path — by far the common case — runs entirely under a *shared* hold: the
// front-cache probe reads lock-free atomic slots, pin counts / reference
// bits / dirty flags / stats are atomics, so N workers hit concurrently.
// Structural changes (miss, eviction, fetch claim/reap, flush, discard)
// take the latch exclusively, and every backend I/O call runs with the
// latch *released*: the frame being transferred is fenced by its io_busy
// flag (readers wanting it wait on a condition variable) so the pool keeps
// serving hits and claiming frames while reads/writes are in flight. In the
// default single-thread mode no wait ever fires and every stat, eviction
// decision and backend call is byte-identical to the unlatched pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/status.h"
#include "txn/txn.h"

namespace noftl::buffer {

/// Global page identity: tablespace id + page number within it, plus the
/// version class the frame holds. version_class 0 is the latest copy (the
/// only class that is ever dirty); a nonzero class caches the page as of
/// that snapshot sequence — read-only frames resolved through the mapper's
/// retained version chains, kept separate so snapshot scans never evict or
/// alias the latest working set's frames.
struct PageKey {
  uint32_t tablespace_id = 0;
  uint64_t page_no = 0;
  uint64_t version_class = 0;

  bool operator==(const PageKey&) const = default;
};

/// Hash over all fields in full. (An earlier packed-uint64 key shifted
/// page_no bits >= 40 into the tablespace field and dropped tablespace bits
/// >= 24, so two distinct pages could silently share a frame — the pool now
/// keys its table on the full PageKey instead.)
struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    uint64_t h = k.page_no + 0x9E3779B97F4A7C15ull *
                                 (static_cast<uint64_t>(k.tablespace_id) + 1);
    h ^= h >> 33;
    h += 0xA24BAED4963EE407ull * k.version_class;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }
};

/// One page read of a batched PageIo submission; status/complete are the
/// completion slots.
struct PageReadReq {
  uint64_t page_no = 0;
  char* buf = nullptr;
  Status status;
  SimTime complete = 0;
  /// Snapshot sequence to resolve the read against (0 = latest copy).
  uint64_t read_seq = 0;
};

/// One page write of a batched PageIo submission.
struct PageWriteReq {
  uint64_t page_no = 0;
  const char* data = nullptr;
  Status status;
  SimTime complete = 0;
};

/// Handle of one in-flight PageIo submission (scoped to the PageIo object);
/// 0 means "nothing in flight".
using PageIoTicket = uint64_t;

/// What the buffer pool needs from a tablespace. Implemented by
/// storage::Tablespace; defined here so the dependency points upward.
class PageIo {
 public:
  virtual ~PageIo() = default;
  virtual uint32_t tablespace_id() const = 0;
  virtual uint32_t page_size() const = 0;
  /// Synchronous read of a page; *complete is the finish time. A nonzero
  /// `read_seq` resolves the page as of that snapshot sequence (flash-native
  /// MVCC); NotFound then means "no version visible at the snapshot" — the
  /// page was empty when the snapshot was taken.
  virtual Status ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                             SimTime* complete, uint64_t read_seq = 0) = 0;
  /// Out-of-place write; *complete is the finish time.
  virtual Status WritePageRaw(uint64_t page_no, SimTime issue,
                              const char* data, SimTime* complete) = 0;

  /// Batched variants: all requests are issued at `issue` in one submission
  /// (cross-die overlap below); per-request slots are filled and *complete
  /// receives the max finish time. The defaults run SubmitReads/Writes +
  /// WaitBatch back to back.
  Status ReadPagesRaw(PageReadReq* reqs, size_t count, SimTime issue,
                      SimTime* complete);
  Status WritePagesRaw(PageWriteReq* reqs, size_t count, SimTime issue,
                       SimTime* complete);

  /// Queued variants: enqueue the whole run at `issue` and return a ticket
  /// immediately; the per-request slots are filled when the ticket is
  /// reaped with WaitBatch, so the pool keeps claiming/bookkeeping while
  /// the reads are in flight. The request array must stay alive and
  /// unmoved until the reap. The defaults resolve the requests eagerly by
  /// looping the single-page calls at the same issue time and only defer
  /// the delivery — behaviourally identical, so custom PageIo
  /// implementations keep working unchanged; storage::Tablespace overrides
  /// them with a real queued IoBatch submission.
  virtual Status SubmitReads(PageReadReq* reqs, size_t count, SimTime issue,
                             PageIoTicket* ticket);
  virtual Status SubmitWrites(PageWriteReq* reqs, size_t count, SimTime issue,
                              PageIoTicket* ticket);
  /// Reap a previously submitted run; `*complete` (if non-null) receives
  /// the run finish time. No-op for an unknown/already-reaped ticket.
  virtual Status WaitBatch(PageIoTicket ticket, SimTime* complete);

 private:
  /// Fallback state for the default eager Submit*/WaitBatch pair (guarded:
  /// custom PageIo implementations may be driven from several workers).
  /// Ranked kLeafStats — taken after the page I/O resolves, never across it.
  Mutex fallback_mu_{LockRank::kLeafStats};
  std::unordered_map<PageIoTicket, SimTime> fallback_done_
      GUARDED_BY(fallback_mu_);
  PageIoTicket next_fallback_ticket_ GUARDED_BY(fallback_mu_) = 1;
};

/// Open-addressing PageKey -> frame index table (linear probing, power-of-two
/// capacity, backward-shift deletion so no tombstones accumulate). Sized once
/// for the pool's frame count: at most `frames` live entries in >= 2x slots,
/// so probe chains stay short.
class FrameTable {
 public:
  static constexpr uint32_t kNoFrame = ~0u;

  explicit FrameTable(uint32_t frames) {
    uint64_t cap = 16;
    while (cap < static_cast<uint64_t>(frames) * 2) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  uint32_t Find(const PageKey& key) const {
    for (uint64_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.frame == kNoFrame) return kNoFrame;
      if (s.key == key) return s.frame;
    }
  }

  /// `key` must be absent (the pool never double-maps a page).
  void Insert(const PageKey& key, uint32_t frame) {
    uint64_t i = Home(key);
    while (slots_[i].frame != kNoFrame) i = (i + 1) & mask_;
    slots_[i] = {key, frame};
    size_++;
  }

  bool Erase(const PageKey& key) {
    uint64_t i = Home(key);
    while (true) {
      if (slots_[i].frame == kNoFrame) return false;
      if (slots_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: slide the probe chain left over the hole so
    // lookups never need tombstones.
    uint64_t hole = i;
    for (uint64_t j = (hole + 1) & mask_; slots_[j].frame != kNoFrame;
         j = (j + 1) & mask_) {
      const uint64_t home = Home(slots_[j].key);
      // Move j into the hole iff the hole lies within j's probe chain
      // (cyclically between its home slot and j).
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    size_--;
    return true;
  }

  uint32_t size() const { return size_; }
  uint64_t capacity() const { return mask_ + 1; }

  /// Invariant check: every entry is reachable from its home slot (no broken
  /// probe chains) and the live count matches. O(capacity).
  Status VerifyIntegrity() const;

 private:
  struct Slot {
    PageKey key;
    uint32_t frame = kNoFrame;
  };

  uint64_t Home(const PageKey& key) const { return PageKeyHash{}(key) & mask_; }

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  uint32_t size_ = 0;
};

struct BufferOptions {
  uint32_t frame_count = 4096;
  /// Background flush starts when dirty frames exceed this fraction.
  double flush_high_water = 0.25;
  /// Pages written per flusher activation.
  uint32_t flush_batch = 64;
  /// Per-tablespace direct-mapped front cache in front of the FrameTable:
  /// slots per tablespace (rounded up to a power of two; 0 disables). The
  /// common repeat hit resolves in one array probe + key compare instead of
  /// a hash + linear probe.
  uint32_t front_cache_slots = 1024;
};

struct BufferStats {
  RelaxedCounter hits = 0;
  RelaxedCounter misses = 0;
  RelaxedCounter evictions = 0;
  RelaxedCounter background_flushes = 0;
  RelaxedCounter sync_flushes = 0;  ///< dirty evictions a transaction waited on
  RelaxedCounter batched_fetches = 0;      ///< FetchPages submissions
  RelaxedCounter batched_fetch_pages = 0;  ///< pages read through FetchPages
  /// Per-tablespace direct-mapped front cache: lookups that consulted it
  /// (every page-table probe of an enabled cache, including internal
  /// re-probes and discards) and the ones it answered without touching the
  /// FrameTable. front_hits / front_probes is the front-cache hit rate.
  RelaxedCounter front_probes = 0;
  RelaxedCounter front_hits = 0;
  /// Background write-back failures. The eviction-path flusher runs with no
  /// waiting transaction, so its errors cannot be returned to anyone
  /// directly; the failed frames stay dirty (only successfully written
  /// frames are marked clean) and the first error is kept sticky here until
  /// the next FixPage or FlushAll surfaces it — a failed victim flush can
  /// degrade into retries, never into a silently dropped dirty page.
  RelaxedCounter write_back_errors = 0;
  Status first_write_error;  ///< mutated under the pool's exclusive latch

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }

  void Reset() { *this = BufferStats{}; }
};

class BufferPool;

/// Handle of one in-flight prefetch (SubmitFetch); 0 = nothing in flight.
using FetchTicket = uint64_t;

/// RAII-ish page handle; the caller must Unfix (or use the PageGuard below).
struct PageHandle {
  char* data = nullptr;
  uint32_t frame = ~0u;

  bool valid() const { return data != nullptr; }
};

class BufferPool {
 public:
  BufferPool(const BufferOptions& options, uint32_t page_size);

  /// A tablespace must register before its pages can be fixed.
  void RegisterTablespace(PageIo* tablespace);

  /// Fix (pin) a page. `create=true` formats a zeroed frame without reading
  /// flash — used for freshly allocated pages. Misses advance ctx->now by
  /// the read wait.
  Result<PageHandle> FixPage(txn::TxnContext* ctx, const PageKey& key,
                             bool create);

  /// Prefetch: make every listed page resident, reading all absent pages in
  /// one batched submission per tablespace run (cross-die overlap below, so
  /// a multi-page miss waits for the slowest die instead of the sum of the
  /// reads). Pages already resident are untouched; fetched pages arrive
  /// unpinned with the reference bit set, so subsequent FixPage calls hit.
  /// ctx->now advances to the batch completion. Equivalent to SubmitFetch +
  /// WaitFetch back to back.
  Status FetchPages(txn::TxnContext* ctx, const PageKey* keys, size_t count);
  Status FetchPages(txn::TxnContext* ctx, const std::vector<PageKey>& keys) {
    return FetchPages(ctx, keys.data(), keys.size());
  }

  /// Submit-early half of a prefetch: claim a frame per absent page and
  /// enqueue the reads (one queued submission per contiguous same-tablespace
  /// run, each handed to the backend as soon as it is formed, so claiming
  /// later pages overlaps with runs already in flight). Returns immediately
  /// without advancing ctx->now — the caller computes while the reads are
  /// in flight and reaps with WaitFetch. Claimed frames stay pinned until
  /// the reap; a FixPage that touches an in-flight page reaps its fetch
  /// first, so results are byte-identical to the synchronous path. A request
  /// larger than half the pool fetches the leading chunks synchronously and
  /// leaves only the last chunk in flight; the same half-pool budget is
  /// shared by ALL in-flight fetches (pages beyond it miss serially), so
  /// stacked fetches can never pin every evictable frame.
  ///
  /// `*ticket` is in/out. On entry, 0 starts a new fetch; a ticket this
  /// context submitted and has not reaped is joined — the new runs become
  /// part of that fetch, so a read wave assembled from several tables and
  /// indexes is reaped (and its wait charged) once, at the first touch of
  /// any of its pages. On return it names the fetch holding the pages, or
  /// is 0 when nothing is in flight (everything resident, or the named
  /// fetch had already been reaped and every new page was resident). On
  /// failure the joined fetch is either reaped already or still live under
  /// its ticket; reaping a reaped ticket is a no-op.
  /// (Analysis-exempt: the submit/unwind lambdas inside open latch windows
  /// through the captured guard, which per-function analysis cannot follow;
  /// the runtime validator still tracks every release/reacquire.)
  Status SubmitFetch(txn::TxnContext* ctx, const PageKey* keys, size_t count,
                     FetchTicket* ticket) NO_THREAD_SAFETY_ANALYSIS;
  Status SubmitFetch(txn::TxnContext* ctx, const std::vector<PageKey>& keys,
                     FetchTicket* ticket) {
    return SubmitFetch(ctx, keys.data(), keys.size(), ticket);
  }

  /// Reap-late half: deliver every read of the fetch, release the claim
  /// pins (frames of failed reads are handed back), advance ctx->now to
  /// max(ctx->now, batch completion) and charge the remaining wait. No-op
  /// for ticket 0 or an already-reaped ticket; `ctx` may be null (timing
  /// is then not accounted — internal cleanup paths only). Returns the
  /// first per-page error, like FetchPages.
  ///
  /// Owner-aware reaping: a fetch belongs to the context that submitted it.
  /// When another context touches one of its in-flight pages (FixPage), the
  /// reads are delivered then, but the toucher is charged only that page's
  /// read latency from its own clock — never the owner's batch completion —
  /// and the batch completion is kept for the owner, whose WaitFetch still
  /// advances to it.
  Status WaitFetch(txn::TxnContext* ctx, FetchTicket ticket);

  /// Drop the pin; `dirty=true` marks the frame for write-back.
  void Unfix(const PageHandle& handle, bool dirty);

  /// Flush every dirty page (checkpoint / shutdown) in batched submissions.
  /// Advances ctx->now past all writes (the caller deliberately waits).
  Status FlushAll(txn::TxnContext* ctx);

  /// Drop a page from the pool without writing it (object dropped).
  void Discard(const PageKey& key);

  /// Drop every page of a tablespace and unregister it (DROP TABLESPACE).
  /// All its frames must be unpinned.
  void DiscardTablespace(uint32_t tablespace_id);

  const BufferStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  uint32_t frame_count() const { return options_.frame_count; }
  uint32_t dirty_count() const { return dirty_count_; }

  /// Cross-check the frame table against the frames: bijection between
  /// in-use frames and table entries, dirty count, pin sanity. O(frames).
  Status VerifyIntegrity() const;

 private:
  // Field locking: `key`, `in_use`, `pending_fetch` and `io_busy` change
  // only under the exclusive latch (shared holders read them safely);
  // `pins`, `dirty` and `referenced` are atomics because the hit path and
  // Unfix mutate them under a shared hold.
  struct Frame {
    PageKey key;
    std::unique_ptr<char[]> data;
    Relaxed<uint32_t> pins = 0;
    /// Nonzero while the frame is a claimed target of an in-flight
    /// SubmitFetch (the owning fetch ticket); FixPage reaps that fetch
    /// before touching the frame.
    FetchTicket pending_fetch = 0;
    /// True while the frame's data is crossing the backend with the latch
    /// released (read-in on a miss, write-back, forced eviction). Everyone
    /// else keeps off the frame and waits on cv_.
    bool io_busy = false;
    Relaxed<bool> dirty = false;
    Relaxed<bool> referenced = false;  ///< CLOCK bit
    bool in_use = false;
  };

  /// One same-tablespace run of an in-flight prefetch. The request array is
  /// frozen before submission (the backend keeps pointers into it).
  struct FetchRun {
    PageIo* ts = nullptr;
    PageIoTicket ticket = 0;
    SimTime issue = 0;
    std::vector<PageReadReq> reqs;
    std::vector<uint32_t> frames;
    std::vector<PageKey> keys;
  };

  struct PendingFetch {
    FetchTicket id = 0;
    /// The submitting context: the only one a reap advances to the batch
    /// completion.
    const txn::TxnContext* owner = nullptr;
    std::vector<FetchRun> runs;
  };

  /// A fetch that a foreign context (or a context-less cleanup) reaped: the
  /// owner's WaitFetch collects the batch completion and read count here.
  struct ReapedFetch {
    FetchTicket id = 0;
    SimTime complete = 0;
    uint64_t pages_read = 0;
    Status first_error;
  };

  // --- Frame-table access with the direct-mapped front cache in front ---
  // Every mapping mutation goes through MapInsert/MapErase so the front
  // cache can never hold an entry for a freed or re-keyed frame (the
  // invariant VerifyIntegrity checks).
  /// Probe runs under a shared hold on the hit path (the front-cache slots
  /// it may install into are atomics); exclusive callers satisfy it too.
  uint32_t MapFind(const PageKey& key) REQUIRES_SHARED(latch_);
  /// Probe without touching the front cache or any stat counter: the
  /// exclusive-path re-probe after a shared-path miss (catches a racing
  /// thread having loaded the page) must not perturb single-thread stats.
  uint32_t MapFindQuiet(const PageKey& key) const REQUIRES_SHARED(latch_) {
    return map_.Find(key);
  }
  void MapInsert(const PageKey& key, uint32_t frame) REQUIRES(latch_);
  void MapErase(const PageKey& key) REQUIRES(latch_);
  void FrontInstall(const PageKey& key, uint32_t frame)
      REQUIRES_SHARED(latch_);
  void FrontErase(const PageKey& key) REQUIRES(latch_);

  // The private helpers below require the exclusive latch held on entry and
  // hold it again on return; those taking `lock` may release it around
  // backend I/O. The ones that DO open such windows carry
  // NO_THREAD_SAFETY_ANALYSIS: they drop the latch through the caller's
  // guard, a hand-off the per-function static analysis cannot follow —
  // callers are still checked against the REQUIRES, and the runtime
  // validator still tracks every release/reacquire through the wrapper.

  /// Find a victim frame (clean preferred); flush synchronously if forced to
  /// evict a dirty one. Returns frame index or error if everything is pinned.
  Result<uint32_t> Evict(txn::TxnContext* ctx, WriterLock& lock)
      REQUIRES(latch_) NO_THREAD_SAFETY_ANALYSIS;

  /// Background flusher: write a batch of dirty unpinned frames at ctx->now
  /// without advancing ctx->now.
  void MaybeFlushBackground(txn::TxnContext* ctx, WriterLock& lock)
      REQUIRES(latch_);

  /// Write the listed dirty frames in batched submissions, one per
  /// contiguous same-tablespace run (preserving frame order, so the backend
  /// sees exactly the op sequence a serial writer would issue at `issue`).
  /// Every run is submitted before any is reaped, so the frame bookkeeping
  /// of later runs overlaps with writes already in flight. Successfully
  /// written frames are marked clean at the reap; `*flushed` counts them.
  /// `*complete` (if non-null) receives the max finish time.
  Status WriteFrameBatch(const std::vector<uint32_t>& frame_ids, SimTime issue,
                         SimTime* complete, uint32_t* flushed, WriterLock& lock)
      REQUIRES(latch_) NO_THREAD_SAFETY_ANALYSIS;

  /// Locked core of WaitFetch: reap `ticket` (waiting out a fetch that is
  /// mid-submission or mid-reap on another thread), finalize its frames.
  /// The owner advances to the batch completion. Any other caller leaves
  /// that completion for the owner; if `touched_frame` names one of the
  /// fetch's frames, the caller is charged that page's read latency from
  /// its own clock.
  Status WaitFetchInternal(txn::TxnContext* ctx, FetchTicket ticket,
                           WriterLock& lock,
                           uint32_t touched_frame = FrameTable::kNoFrame)
      REQUIRES(latch_) NO_THREAD_SAFETY_ANALYSIS;

  /// Owner-side accounting of a reaped fetch: advance to the batch
  /// completion, charge the wait, count the reads.
  void ChargeOwner(txn::TxnContext* ctx, SimTime complete, uint64_t pages_read,
                   WriterLock& lock) REQUIRES(latch_);

  void DiscardInternal(const PageKey& key, WriterLock& lock) REQUIRES(latch_);

  BufferOptions options_;
  uint32_t page_size_;
  /// Pool latch: shared for the hit path, exclusive for structure changes.
  /// LockRank::kBufferPool — ordered above the tablespace/provider locks;
  /// always released around backend I/O calls (the device/mapper entry
  /// asserts enforce exactly that).
  mutable SharedMutex latch_{LockRank::kBufferPool};
  /// Signalled whenever an io_busy frame finalizes or a fetch registers /
  /// reaps; waiters re-probe under their (shared or exclusive) hold.
  mutable std::condition_variable_any cv_;
  /// Frame array: the vector itself never resizes after construction; the
  /// per-frame fields follow the locking rules documented on Frame.
  std::vector<Frame> frames_ GUARDED_BY(latch_);
  /// key -> frame; mutated under the exclusive latch.
  FrameTable map_ GUARDED_BY(latch_);
  /// Direct-mapped front caches, indexed by tablespace id (sized at
  /// RegisterTablespace): page_no & front_mask_ -> frame index or kNoFrame.
  /// Slots are atomics: the hit path installs entries under a shared hold.
  std::vector<std::vector<Relaxed<uint32_t>>> front_ GUARDED_BY(latch_);
  uint32_t front_mask_ = 0;  ///< 0 = front cache disabled; set once
  std::unordered_map<uint32_t, PageIo*> tablespaces_ GUARDED_BY(latch_);
  uint32_t clock_hand_ GUARDED_BY(latch_) = 0;
  Relaxed<uint32_t> dirty_count_ = 0;  ///< Unfix increments it under shared
  uint32_t flush_hand_ GUARDED_BY(latch_) = 0;
  /// In-flight fetches, submission order.
  std::vector<PendingFetch> pending_fetches_ GUARDED_BY(latch_);
  /// Fetches reaped by a non-owner, awaiting their owner's WaitFetch.
  std::vector<ReapedFetch> reaped_for_owner_ GUARDED_BY(latch_);
  /// Claim pins currently held by in-flight fetches, across all of them —
  /// capped at half the pool so stacked submit-early fetches can never pin
  /// every evictable frame.
  uint32_t pending_claim_pins_ GUARDED_BY(latch_) = 0;
  FetchTicket next_fetch_id_ GUARDED_BY(latch_) = 1;
  BufferStats stats_;
};

/// Scope guard pairing FixPage/Unfix.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageHandle handle)
      : pool_(pool), handle_(handle) {}
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    handle_ = other.handle_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.handle_ = PageHandle{};
    return *this;
  }
  ~PageGuard() { Release(); }

  char* data() { return handle_.data; }
  const char* data() const { return handle_.data; }
  bool valid() const { return handle_.valid(); }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && handle_.valid()) {
      pool_->Unfix(handle_, dirty_);
      pool_ = nullptr;
      handle_ = PageHandle{};
      dirty_ = false;
    }
  }

 private:
  BufferPool* pool_ = nullptr;
  PageHandle handle_;
  bool dirty_ = false;
};

}  // namespace noftl::buffer
