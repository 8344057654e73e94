// Out-of-place space management over a set of flash dies.
//
// This is the machinery every flash translation scheme needs: a page-level
// logical-to-physical mapping with out-of-place updates, per-die active
// blocks, free-block pools, garbage collection, and dynamic wear leveling.
//
// Two clients build on it:
//   * ftl::PageMappingFtl — the *traditional SSD* baseline: one mapper over
//     all dies, hidden behind a block-device interface;
//   * region::Region — the paper's contribution: one mapper per region over
//     the region's die subset, driven directly by the DBMS.
//
// The mapper owns no global clock. Reads are host-synchronous (the caller
// advances its clock to the returned completion time); programs and all GC
// traffic simply extend die busy horizons, which is how background work
// manifests as queueing delay for later host I/O.
//
// Because NoFTL runs one mapper per region, the mapper core is multiplied
// across every region of the device and dominates GC-heavy simulations. The
// hot-path state is therefore kept cache-conscious and victim selection
// constant-time:
//   * per-page validity is a packed uint64_t bitmap (popcount for counts,
//     ctz for next-valid-page iteration during relocation);
//   * die state lives in a dense vector indexed through a die->slot table;
//   * free blocks are segregated by erase count with O(1) pop at the
//     least-worn (dynamic WL) or most-worn end;
//   * GC candidates live in intrusive doubly-linked lists segregated by
//     valid_count, so the greedy victim is O(1) and cost-benefit only scans
//     actual candidates (with an exact fully-invalid fast path).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <unordered_map>

#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "mvcc/version_horizon.h"
#include "storage/io_batch.h"

namespace noftl::ftl {

struct CheckpointImage;
class CheckpointStore;

/// GC victim selection policy.
enum class VictimPolicy : uint8_t {
  kGreedy = 0,       ///< fewest valid pages
  kCostBenefit = 1,  ///< Kawaguchi-style (1-u)/(2u) * age
};

/// How victim candidates are indexed. GC always picks through kBuckets;
/// kLinearScan is the scan-every-block reference that DebugPickVictim runs
/// on the same mapper state (regression tests, bench_gc_victim).
enum class VictimIndex : uint8_t {
  kBuckets = 0,     ///< segregated valid-count buckets, O(1) greedy pick
  kLinearScan = 1,  ///< O(blocks_per_die) scan per pick (baseline)
};

/// Tuning knobs for one mapper instance.
struct MapperOptions {
  /// Foreground GC runs on a die once its free blocks drop to this many,
  /// paced by its victim: after each host page written to the die, it
  /// relocates r = ceil(v / (pages_per_block - v)) pages of its current
  /// victim, where v is the victim's valid count when it was picked — the
  /// rate at which reclaiming it exactly replaces the space the host
  /// consumes (one page per write for victims under half valid). r doubles
  /// while the die has fewer free blocks than this. Steps stay one copyback
  /// long behind host reads where victims are sparse and still keep pace on
  /// nearly-full ones; only a die with no free block at all stalls the host
  /// write for a full victim reclamation.
  uint32_t gc_low_watermark = 2;
  /// ForceGc and emergency reclamation aim for this many free blocks.
  uint32_t gc_high_watermark = 4;
  VictimPolicy victim_policy = VictimPolicy::kGreedy;
  /// Allocate least-erased free blocks first (dynamic wear leveling).
  bool dynamic_wear_leveling = true;
  /// On-flash mapper checkpointing: number of checkpoint slots carved out
  /// of the top of every die (0 = disabled). Two or more slots keep the
  /// previous checkpoint intact while the next one is written, so a crash
  /// mid-checkpoint falls back to the older epoch, then to the full scan.
  /// With three or more slots, checkpoints after a full image are deltas
  /// (see OutOfPlaceMapper::WriteCheckpoint).
  uint32_t checkpoint_slots = 0;
  /// Write a checkpoint automatically every this many host writes
  /// (0 = only explicit WriteCheckpoint calls). Atomic-batch pages count.
  uint64_t checkpoint_interval_writes = 0;
  /// Transient-read-failure retry policy: total attempts per read (initial
  /// attempt included); retry i is issued read_retry_backoff_us * i after
  /// the failed attempt completes. Read-health scrubs queued by the failed
  /// attempt (disturbed blocks) run before the retry, so a retried read of
  /// a disturbed block lands on the relocated fresh copy.
  uint32_t read_retry_attempts = 4;
  SimTime read_retry_backoff_us = 100;
  /// Write admission control (0 = disabled, the legacy behaviour). When
  /// every die's free-block count has dropped below throttle_low_watermark,
  /// foreground (kHost) writes are throttled: with a live background
  /// reclaimer attached (SetBackgroundReclaimer) the call waits up to
  /// throttle_wait_us of wall-clock time for it to free space, then fails
  /// with Busy so the caller's retry machinery backs off — emergency inline
  /// GC stays the last resort instead of the steady state. A die releases
  /// its throttle only at throttle_high_watermark free blocks (hysteresis),
  /// and PickWriteDie steers host writes away from throttled dies while any
  /// die is clear.
  uint32_t throttle_low_watermark = 0;
  uint32_t throttle_high_watermark = 0;
  SimTime throttle_wait_us = 2000;
  /// Flash-native MVCC: when set, the mapper watches this horizon block and
  /// *retains* superseded page copies any live snapshot could still read
  /// (valid bit kept, mapping moved to a per-lpn version chain) instead of
  /// invalidating them; reads tagged with a snapshot sequence resolve
  /// against the chain. Null (the default) keeps the legacy
  /// invalidate-on-supersede behaviour byte-identically — no sequence is
  /// ever drawn. Shared across every mapper of a database (one global
  /// commit order); must outlive the mapper.
  mvcc::VersionHorizon* snapshots = nullptr;
};

/// Per-mapper operation counters (the device also keeps global ones; these
/// give per-region attribution for Figure-2-style reports). Relaxed atomics
/// (common/atomic_counter.h): mapper calls are serialized by the mapper's
/// own latch, but readers (driver reports, stress tests) snapshot the
/// counters from other threads without taking it.
struct MapperStats {
  RelaxedCounter host_reads = 0;
  RelaxedCounter host_writes = 0;
  RelaxedCounter gc_runs = 0;
  RelaxedCounter gc_copybacks = 0;
  RelaxedCounter gc_erases = 0;
  RelaxedCounter wl_migrated_pages = 0;
  /// Victim selections performed and blocks/buckets examined while doing so
  /// (the cost the bucket index collapses to O(1)).
  RelaxedCounter victim_picks = 0;
  RelaxedCounter victim_scan_steps = 0;
  /// Wall-clock time spent in those selections, ns (a host-CPU cost for
  /// benches; simulated time never depends on it).
  RelaxedCounter victim_pick_wall_ns = 0;
  /// Device-metadata lookups made by GC relocation. One per *victim block*
  /// (the whole block's OOB array is resolved when the victim is picked and
  /// reused by every step until its erase), not one per relocated page —
  /// the counter proves the per-page PeekMetadata cost is gone.
  RelaxedCounter gc_meta_lookups = 0;
  RelaxedCounter checkpoints_written = 0;
  /// Recovery cost attribution, set on the mapper RecoverFromDevice
  /// returns: OOB pages scanned, and the checkpoint epoch the delta scan
  /// started from (0 = full scan).
  RelaxedCounter recovery_pages_scanned = 0;
  RelaxedCounter recovery_ckpt_epoch = 0;
  /// Read-path reliability: transient-failure retries issued / reads that
  /// failed even after every retry; blocks queued for a read-health scrub
  /// (disturb threshold or hard failure) / actually scrubbed; hard-
  /// unreadable pages recovered from a superseded on-flash copy / truly
  /// lost (no surviving copy).
  RelaxedCounter read_retries = 0;
  RelaxedCounter read_retries_exhausted = 0;
  RelaxedCounter read_scrubs_queued = 0;
  RelaxedCounter read_scrub_blocks = 0;
  RelaxedCounter reads_salvaged = 0;
  RelaxedCounter reads_lost = 0;
  /// Background-maintenance issues (BackgroundMaintainDie): GC pages
  /// relocated / victims erased off the foreground path, scrub blocks
  /// (read-health and aborted-batch orphans) drained, and wear-leveling
  /// pages migrated by cold-block rotation.
  RelaxedCounter bg_gc_pages = 0;
  RelaxedCounter bg_gc_erases = 0;
  RelaxedCounter bg_scrub_blocks = 0;
  RelaxedCounter bg_wl_pages = 0;
  /// Admission control: host writes that found every die throttled, the
  /// subset that cleared within the bounded wait, the subset that timed out
  /// with Busy, and emergency inline reclamations (a host write stalling on
  /// a die with no free block — the case background GC exists to prevent).
  RelaxedCounter throttle_events = 0;
  RelaxedCounter throttle_waits = 0;
  RelaxedCounter throttle_busy = 0;
  RelaxedCounter emergency_reclaims = 0;
  /// Public kHost entries (reads, writes, batch submissions). The
  /// background scheduler snapshots this before a grant and preempts when
  /// it moves.
  RelaxedCounter foreground_arrivals = 0;
  /// Flash-native MVCC: superseded copies retained for live snapshots /
  /// retained copies reclaimed (snapshot released or chain entry dead) /
  /// reads resolved through a version chain instead of the live L2P.
  RelaxedCounter versions_retained = 0;
  RelaxedCounter versions_reclaimed = 0;
  RelaxedCounter snapshot_reads = 0;
  /// Incremental checkpointing: incremental images written (full images are
  /// checkpoints_written - ckpt_incr_written) and payload bytes per kind.
  RelaxedCounter ckpt_incr_written = 0;
  RelaxedCounter ckpt_bytes_full = 0;
  RelaxedCounter ckpt_bytes_incr = 0;
};

/// Page-level out-of-place mapper over an explicit set of dies.
///
/// Thread-safe: every public operation takes the mapper latch exactly once
/// (one plain mutex per mapper — per-region under NoFTL, so concurrency
/// shards naturally with the region/shard layout). No foreign code runs
/// under it: reaping fills completion slots and returns, and where one
/// operation drives another (SubmitBatch's trims, its no-ticket reap) it
/// calls the private *Locked body, as the device does. A thread never holds
/// two mappers at once. The `Debug*` introspection accessors that return
/// plain fields are exempt and remain single-thread test aids.
class OutOfPlaceMapper {
 public:
  static constexpr uint64_t kUnmappedLpn = ~0ull;
  /// Returned by DebugPickVictim when no block is eligible.
  static constexpr uint32_t kNoVictim = ~0u;

  /// `logical_pages` is the exported logical address space [0, logical_pages).
  /// It must leave enough physical headroom on the given dies for GC:
  /// at least gc_high_watermark + 2 blocks per die.
  OutOfPlaceMapper(flash::FlashDevice* device, std::vector<flash::DieId> dies,
                   uint64_t logical_pages, const MapperOptions& options);
  ~OutOfPlaceMapper();

  // Not copyable: owns large mapping state tied to device blocks.
  OutOfPlaceMapper(const OutOfPlaceMapper&) = delete;
  OutOfPlaceMapper& operator=(const OutOfPlaceMapper&) = delete;

  uint64_t logical_pages() const { return logical_pages_; }
  uint64_t physical_pages() const;
  size_t die_count() const {
    MutexLock lock(mu_);
    return dies_.size();
  }
  /// Snapshot of the die set (copied: AddDie/RemoveDie reshape it).
  std::vector<flash::DieId> dies() const {
    MutexLock lock(mu_);
    return dies_;
  }

  /// Validate that logical_pages fits the die set with GC headroom.
  Status CheckCapacity() const;

  /// Read logical page `lpn`. NotFound if never written (or trimmed).
  /// `*complete` receives the completion time; `data` may be null.
  /// `read_seq` != 0 is a snapshot read (options().snapshots must be set):
  /// the newest version with sequence <= read_seq is returned — possibly a
  /// retained superseded copy — and NotFound means the page did not exist
  /// at that snapshot.
  Status Read(uint64_t lpn, SimTime issue, flash::OpOrigin origin,
              char* data, SimTime* complete, uint64_t read_seq = 0);

  /// Write logical page `lpn` out-of-place; triggers GC when the target die
  /// is low on free blocks. `object_id` is stored in the OOB metadata.
  /// Program failures retire the block (bad-block management) and the write
  /// retries on a fresh slot.
  Status Write(uint64_t lpn, SimTime issue, flash::OpOrigin origin,
               const char* data, uint32_t object_id, SimTime* complete);

  /// One page of an atomic batch.
  struct BatchPage {
    uint64_t lpn;
    const char* data;  ///< may be null
  };

  /// Enqueue a batch: process `requests` in submission order, all issued at
  /// `issue`, and return a ticket immediately — the caller's clock does not
  /// advance and the per-request completion slots stay empty until the batch
  /// is reaped with WaitBatch. Reads are translated now
  /// (reads never change the mapping, so up-front translation equals
  /// translating each at its turn) and enter the device's per-die submission
  /// queues, where requests on distinct dies overlap; writes and trims take
  /// the exact single-page state paths at the batch issue time (same die
  /// choice, GC pacing and OOB metadata as a serial caller would get), with
  /// their completions queued for the reap. The call itself only fails on
  /// malformed submissions. Reaped-state- and stats-wise equivalent to
  /// invoking Read/Write/Trim once per request at the same `issue`.
  Status SubmitBatch(storage::IoRequest* requests, size_t count, SimTime issue,
                     flash::OpOrigin origin, storage::IoTicket* ticket);

  /// Reap every request of `ticket` in submission order: fills the
  /// completion slots and, if non-null, `*complete` with the batch finish
  /// time (max over successful requests, at least the issue time). The
  /// caller commits to waiting until that time. No-op for an unknown or
  /// already-reaped ticket.
  Status WaitBatch(storage::IoTicket ticket, SimTime* complete);

  /// In-flight (submitted, not fully reaped) batches.
  size_t PendingBatches() const {
    MutexLock lock(mu_);
    return inflight_.size();
  }

  /// Record an already-resolved batch (e.g. an atomic batch, whose commit
  /// decision is made at submit) so its completion slots are delivered
  /// through the same reap path as queued requests. Every request retires
  /// with `status`; successful requests complete at `done`.
  storage::IoTicket EnqueueResolved(storage::IoRequest* requests, size_t count,
                                    SimTime issue, const Status& status,
                                    SimTime done);

  /// Atomically install a multi-page update (paper §1, advantage iv: direct
  /// control over out-of-place updates enables short atomic writes without
  /// extra overhead). All pages are programmed to fresh slots tagged with a
  /// common batch id; only after every program succeeds do the mappings
  /// switch. On failure nothing is mapped — the old versions stay visible —
  /// and the already-programmed orphan pages are scrubbed from flash (their
  /// blocks erased after rescuing any valid neighbours) so a later recovery
  /// can never mistake them for committed data. Versions of the affected
  /// lpns are advanced past the orphan copies as a second line of defence
  /// for orphans that survive a failed scrub erase; such scrubs are retried
  /// before the next batch, which fails with Busy while any orphan remains
  /// (committing would stamp a watermark that vouches for the orphans).
  Status WriteAtomicBatch(const std::vector<BatchPage>& pages, SimTime issue,
                          flash::OpOrigin origin, uint32_t object_id,
                          SimTime* complete);

  /// Drop the mapping of `lpn` (delete/TRIM); the physical page becomes
  /// garbage for the next GC pass. OK even if unmapped.
  Status Trim(uint64_t lpn);

  bool IsMapped(uint64_t lpn) const;
  /// Physical location of a logical page (test/debug aid).
  Result<flash::PhysAddr> Lookup(uint64_t lpn) const;

  /// Force a GC pass on every die down to the high watermark (test aid; the
  /// write path normally triggers GC on demand).
  Status ForceGc(SimTime issue);

  // --- Flash-native MVCC (options().snapshots != nullptr) ---

  /// Drop every retained version no live snapshot can read (their physical
  /// pages become garbage for the next GC pass). Called by
  /// mvcc::SnapshotManager::Release for eager reclamation; idempotent and a
  /// no-op without snapshots.
  void ReclaimRetainedVersions();

  /// Retained superseded copies currently held for live snapshots.
  uint64_t retained_versions() const {
    MutexLock lock(mu_);
    return retained_count_;
  }

  // --- Background maintenance (driven by sched::BackgroundScheduler) ---

  /// Issue budget and targets for one background grant on one die.
  struct BackgroundPolicy {
    /// Relocation budget (pages) for this grant.
    uint32_t max_pages = 8;
    /// Reclaim until the die holds this many free blocks
    /// (0 = the mapper's gc_high_watermark).
    uint32_t free_target = 0;
    /// Background wear leveling: when the erase-count gap between the die's
    /// most-worn free block and its least-erased cold data block exceeds
    /// this, rotate the cold block back into the free pool (0 = off).
    uint32_t wl_spread = 0;
    /// Erase budget for this grant (~0u = unlimited). The scheduler's
    /// pacing token bucket caps it so background erases — the longest flash
    /// op — cannot cluster ahead of a foreground burst; a victim fully
    /// relocated but over budget stays parked (backlog) until the bucket
    /// refills.
    uint32_t max_erases = ~0u;
  };

  /// Work performed by one BackgroundMaintainDie grant.
  struct BackgroundWork {
    uint32_t gc_pages = 0;
    uint32_t gc_erases = 0;
    uint32_t scrub_blocks = 0;
    uint32_t wl_pages = 0;
    /// Victim erases skipped because the grant's max_erases budget was
    /// exhausted (the work remains: backlog is set).
    uint32_t gc_erases_deferred = 0;
    /// Eligible GC work remains on this die (grant another quantum).
    bool backlog = false;
  };

  /// One bounded background-maintenance quantum on `die`, issued at `now`:
  /// drain this die's queued scrubs (aborted-batch orphans first, then
  /// read-health), run proactive GC toward the policy's free target, then
  /// optionally one cold-block wear-level rotation. Takes the latch once
  /// for the whole quantum — callers issue small quanta and re-check for
  /// foreground arrivals between them. Other dies' queues are untouched
  /// (their grants run when *they* are idle). NotFound if the die is not
  /// part of this mapper.
  Status BackgroundMaintainDie(flash::DieId die, SimTime now,
                               const BackgroundPolicy& policy,
                               BackgroundWork* out);

  /// Foreground-arrival epoch (see MapperStats::foreground_arrivals);
  /// readable without the latch.
  uint64_t foreground_arrivals() const { return stats_.foreground_arrivals; }

  /// A live background reclaimer is attached: write admission may block
  /// briefly for it to free space instead of failing fast with Busy.
  void SetBackgroundReclaimer(bool attached) {
    bg_reclaimer_.store(attached, std::memory_order_relaxed);
  }

  // --- Die-set reshaping (global wear leveling across regions) ---

  /// Relocate all valid pages off `die` onto the remaining dies, erase its
  /// blocks, and remove it from the set. Fails with NoSpace if the remaining
  /// dies cannot absorb the data, Busy if it is the only die.
  Status RemoveDie(flash::DieId die, SimTime issue);

  /// Add a (drained, erased) die to the set.
  Status AddDie(flash::DieId die);

  /// Rebuild a mapper from the device (NoFTL's recoverable address
  /// translation). With checkpointing enabled, the newest valid on-flash
  /// checkpoint is loaded first and only blocks
  /// the device mutated since the snapshot are rescanned — each die's OOB
  /// reads run as an independent stream, so the scan finishes in the max,
  /// not the sum, of the per-die scan times. Otherwise every programmed
  /// page's OOB is scanned (same per-die parallelism, charged as kMeta
  /// reads at `issue`). Either way the merge keeps the highest version per
  /// logical page (ties broken by highest physical address), classifies
  /// batches above the recovered commit watermark with fewer *distinct*
  /// surviving members than their declared size as torn (duplicate
  /// GC-relocated copies of one member cannot mask a missing member),
  /// scrubs torn remnants and checkpointed pending scrubs, and
  /// reconstructs free lists and GC bookkeeping. `*complete` receives the
  /// finish time.
  ///
  /// Caveat (matches real SSD non-deterministic TRIM): Trim() only drops
  /// the RAM mapping, so a trimmed page whose flash copy has not been
  /// garbage-collected yet reappears after a full-scan recovery. (A
  /// checkpoint makes trims issued before it durable: the checkpointed L2P
  /// has them applied and unchanged blocks are not rescanned.) Engines
  /// that need durable deallocation must overwrite or track it above this
  /// layer. Trimming a committed batch member additionally erodes that
  /// batch's commit evidence: if GC then erases the member's copy and
  /// every page stamped with the batch's commit watermark, recovery can
  /// misread the batch as torn and roll back its surviving members.
  static Result<std::unique_ptr<OutOfPlaceMapper>> RecoverFromDevice(
      flash::FlashDevice* device, std::vector<flash::DieId> dies,
      uint64_t logical_pages, const MapperOptions& options, SimTime issue,
      SimTime* complete);

  /// Test/bench hook: RecoverFromDevice with the checkpoint ignored — the
  /// full OOB scan that delta recovery must match. The reserved checkpoint
  /// blocks stay reserved and their epoch hint is still read, so later
  /// checkpoints keep monotonic epochs.
  static Result<std::unique_ptr<OutOfPlaceMapper>> DebugRecoverByFullScan(
      flash::FlashDevice* device, std::vector<flash::DieId> dies,
      uint64_t logical_pages, const MapperOptions& options, SimTime issue,
      SimTime* complete);

  // --- Checkpointing (options().checkpoint_slots > 0) ---

  /// Serialize the mapper's recoverable state (L2P, versions, batch
  /// counters, pending scrubs) into the next checkpoint slot: a full image,
  /// or — with at least kMinDeltaCheckpointSlots slots, once a full base
  /// exists on flash and at most kIncrCheckpointMaxDirtyPct percent of the
  /// lpns changed since — a delta of only the dirty {lpn, addr, version}
  /// triples chained to that base (recovery resolves the chain). Quiesces
  /// half-reclaimed GC victims first so no stale same-version copy can
  /// linger in a block the delta scan would skip. No-op when checkpointing
  /// is disabled; a failed write leaves older epochs intact.
  Status WriteCheckpoint(SimTime issue, SimTime* complete);

  /// Test hook: write a checkpoint but stop after `max_pages` payload
  /// programs, simulating a crash mid-checkpoint (a torn slot recovery
  /// must detect and discard).
  Status DebugWriteTornCheckpoint(SimTime issue, uint64_t max_pages,
                                  SimTime* complete);

  /// Epoch of the newest checkpoint written (or adopted at recovery).
  uint64_t checkpoint_epoch() const {
    MutexLock lock(mu_);
    return checkpoint_epoch_;
  }
  /// Blocks per die reserved for checkpoint slots (0 when disabled).
  uint32_t reserved_blocks_per_die() const { return reserved_per_die_; }

  /// A delta checkpoint is promoted to a full image once more than this
  /// percentage of the logical space is dirty relative to the base (a delta
  /// near the full size costs more than it saves).
  static constexpr uint64_t kIncrCheckpointMaxDirtyPct = 50;
  /// Deltas need a third slot: the base and the newest delta are both
  /// load-bearing, and the next write must land on neither so that a crash
  /// mid-write still leaves a valid chain. With two slots every checkpoint
  /// is a full image.
  static constexpr uint32_t kMinDeltaCheckpointSlots = 3;

  // --- Introspection (tests, equivalence checks) ---

  uint64_t next_batch_id() const {
    MutexLock lock(mu_);
    return next_batch_id_;
  }
  uint64_t committed_batches() const {
    MutexLock lock(mu_);
    return committed_batches_;
  }
  size_t pending_scrub_count() const {
    MutexLock lock(mu_);
    return pending_scrubs_.size();
  }
  /// Blocks awaiting a read-health scrub (disturb / hard read failure).
  size_t read_scrub_queue() const {
    MutexLock lock(mu_);
    return read_scrubs_.size();
  }
  /// Per-lpn write-version counter (~0 if lpn out of range).
  uint64_t DebugVersionOf(uint64_t lpn) const {
    MutexLock lock(mu_);
    return lpn < logical_pages_ ? versions_[lpn] : ~0ull;
  }
  /// Current translation of `lpn` (die == kUnmappedDie when unmapped).
  flash::PhysAddr DebugTranslate(uint64_t lpn) const {
    MutexLock lock(mu_);
    return lpn < logical_pages_ ? l2p_[lpn]
                                : flash::PhysAddr{kUnmappedDie, 0, 0};
  }

  /// Average erase count over this mapper's blocks (wear of the die set).
  double AvgEraseCount() const;

  /// Blocks retired by bad-block management (program/erase failures).
  uint64_t retired_blocks() const {
    MutexLock lock(mu_);
    return retired_blocks_;
  }
  /// Total valid (live) pages.
  uint64_t valid_pages() const {
    MutexLock lock(mu_);
    return total_valid_;
  }
  /// Total free (erased, allocatable) pages across free blocks and the
  /// unwritten tails of active blocks.
  uint64_t FreePages() const;

  const MapperStats& stats() const { return stats_; }
  const MapperOptions& options() const { return options_; }

  /// Internal consistency check (O(physical pages)); used by tests and
  /// debug builds: L2P/P2L are inverse bijections, valid counts, packed
  /// bitmaps, candidate bucket lists and free-block pools all agree.
  Status VerifyIntegrity() const;

  // --- Test/bench hooks ---

  /// Run victim selection on `die` with the given index structure without
  /// touching stats or the GC state machine (bench/regression aid: lets a
  /// test compare the bucket pick against the linear-scan reference on the
  /// same mapper state). Blocks/buckets examined are added to `*steps` if
  /// non-null.
  uint32_t DebugPickVictim(flash::DieId die, SimTime now, VictimIndex index,
                           uint64_t* steps = nullptr);

  /// Valid-page count of one block (test aid); ~0u if the die is not part
  /// of this mapper or the block is out of range.
  uint32_t BlockValidCount(flash::DieId die, flash::BlockId block) const;

  /// The victim GC is reclaiming on a die (test aid): its block (kNoVictim
  /// when none or the die is not part of this mapper), and its valid count
  /// when it was picked and now.
  struct GcVictimState {
    uint32_t block = kNoVictim;
    uint32_t valid_at_pick = 0;
    uint32_t valid_now = 0;
  };
  GcVictimState DebugGcVictim(flash::DieId die) const;

 private:
  static constexpr uint32_t kNoBlock = ~0u;
  static constexpr uint32_t kNoSlot = ~0u;
  static constexpr uint32_t kWordBits = 64;
  /// Sentinel for the per-die scrub filters: no restriction.
  static constexpr flash::DieId kAllDies = ~0u;

  /// Per-block bookkeeping. Validity bitmaps and back pointers live in flat
  /// per-die arrays (DieState) so this stays small and cache-friendly.
  struct BlockInfo {
    uint32_t valid_count = 0;
    /// Intrusive links of the valid-count candidate bucket list.
    uint32_t bucket_prev = kNoBlock;
    uint32_t bucket_next = kNoBlock;
    SimTime last_update = 0;  ///< for cost-benefit age
    /// Pages programmed by an in-flight atomic batch but not yet mapped.
    /// Such pages look like garbage (valid_count does not count them), so
    /// the block must be pinned out of GC until the batch commits or fails.
    uint32_t pinned = 0;
    bool is_active = false;   ///< currently an append target
    bool bad = false;         ///< retired: never allocated again
    bool in_bucket = false;   ///< member of a candidate bucket list
  };

  /// Per-die bookkeeping. All arrays are dense and indexed by block id
  /// (times words_per_block_ / pages_per_block for the flat ones).
  struct DieState {
    flash::DieId die = 0;
    std::vector<BlockInfo> blocks;
    /// Packed per-page validity: words_per_block_ words per block.
    std::vector<uint64_t> valid_bits;
    /// Flat physical->logical back pointers: pages_per_block per block.
    std::vector<uint64_t> back;
    /// Head of the intrusive candidate list per valid_count value,
    /// [0, pages_per_block]. Fully-programmed non-active blocks that GC
    /// could visit live in bucket[valid_count]; bucket[pages_per_block]
    /// (nothing to gain) is never selected.
    std::vector<uint32_t> bucket_head;
    /// Lowest possibly-non-empty bucket (lazily advanced on pick).
    uint32_t min_bucket = 0;
    /// Free (fully erased) blocks segregated by erase count: O(1) pop of a
    /// least-worn (dynamic WL) or most-worn block.
    std::vector<std::vector<uint32_t>> free_buckets;
    uint32_t free_count = 0;
    uint32_t free_min = ~0u;  ///< lowest possibly-non-empty free bucket
    uint32_t free_max = 0;    ///< highest possibly-non-empty free bucket
    uint32_t host_active = kNoBlock;
    uint32_t gc_active = kNoBlock;
    /// Victim currently being reclaimed incrementally (kNoBlock = none),
    /// its valid count when picked (sets the GC pace, see MapperOptions),
    /// and its OOB metadata array, resolved once at the pick and valid
    /// until the victim's erase.
    uint32_t gc_victim = kNoBlock;
    uint32_t gc_victim_valid = 0;
    const flash::PageMetadata* gc_victim_meta = nullptr;
    /// Write-admission state (hysteresis: set below throttle_low_watermark,
    /// cleared at throttle_high_watermark). Always false when throttling is
    /// disabled.
    bool throttled = false;
  };

  DieState& StateOf(flash::DieId die) REQUIRES(mu_) {
    return die_states_[die_slot_[die]];
  }
  const DieState& StateOf(flash::DieId die) const REQUIRES(mu_) {
    return die_states_[die_slot_[die]];
  }

  // --- Packed validity bitmap helpers ---
  bool TestValid(const DieState& ds, uint32_t block, uint32_t page) const {
    return (ds.valid_bits[block * words_per_block_ + page / kWordBits] >>
            (page % kWordBits)) &
           1u;
  }
  void SetValidBit(DieState& ds, uint32_t block, uint32_t page) {
    ds.valid_bits[block * words_per_block_ + page / kWordBits] |=
        uint64_t{1} << (page % kWordBits);
  }
  void ClearValidBit(DieState& ds, uint32_t block, uint32_t page) {
    ds.valid_bits[block * words_per_block_ + page / kWordBits] &=
        ~(uint64_t{1} << (page % kWordBits));
  }
  uint64_t BackOf(const DieState& ds, uint32_t block, uint32_t page) const {
    return ds.back[static_cast<size_t>(block) * pages_per_block_ + page];
  }
  void SetBack(DieState& ds, uint32_t block, uint32_t page, uint64_t lpn) {
    ds.back[static_cast<size_t>(block) * pages_per_block_ + page] = lpn;
  }

  // --- Candidate bucket list maintenance ---
  void BucketInsert(DieState& ds, uint32_t block) REQUIRES(mu_);
  void BucketRemove(DieState& ds, uint32_t block) REQUIRES(mu_);
  /// A block stopped being an append target: it is a GC candidate now.
  void OnBlockFull(DieState& ds, uint32_t block) REQUIRES(mu_);

  /// Pin/unpin a block holding not-yet-mapped atomic-batch pages: pinned
  /// blocks are never GC victims (an erase would destroy the uncommitted
  /// data). Unpinning re-indexes the block as a candidate if eligible.
  void PinBlock(const flash::PhysAddr& slot) REQUIRES(mu_);
  void UnpinBlock(const flash::PhysAddr& slot) REQUIRES(mu_);

  // --- Free-pool maintenance (segregated by erase count) ---
  void FreePush(DieState& ds, uint32_t block) REQUIRES(mu_);
  uint32_t FreePop(DieState& ds) REQUIRES(mu_);
  void FreeClear(DieState& ds) REQUIRES(mu_);

  void InitDieState(DieState* ds, flash::DieId die) REQUIRES(mu_);

  /// Centralized valid-count transitions (keep buckets in sync).
  void MarkValid(DieState& ds, uint32_t block, uint32_t page, uint64_t lpn)
      REQUIRES(mu_);
  void MarkInvalid(DieState& ds, uint32_t block, uint32_t page) REQUIRES(mu_);

  /// Pop the least-worn free block of a die; kNoBlock if none. The last
  /// free block of a die is reserved for GC destinations (`for_gc=true`) so
  /// relocation can never be stranded without an append target.
  uint32_t AllocBlock(DieState* ds, bool for_gc) REQUIRES(mu_);

  /// Next die for a host write issued at `issue`: the least-busy die of the
  /// set, ties broken round-robin; exits early at the first die already
  /// idle at `issue` (no die can start the program sooner). Dies that
  /// cannot take the write (DieCanTakeWrite) are skipped while another can.
  /// With `avoid_throttled` (host writes under admission control), dies
  /// below their free-block reserve are skipped while any die is clear.
  flash::DieId PickWriteDie(SimTime issue, bool avoid_throttled)
      REQUIRES(mu_);

  /// False when a host write to the die would fail with NoSpace: its host
  /// block is full, it is down to the free block reserved for GC, and GC
  /// has no victim to reclaim.
  bool DieCanTakeWrite(DieState& ds) REQUIRES(mu_);

  /// Hysteresis update + query of the die's write-admission throttle.
  bool DieThrottled(DieState& ds) REQUIRES(mu_);

  /// Write admission at public kHost entries, called before taking the
  /// latch (it must not sleep under it): passes while any die is clear of
  /// its throttle; otherwise waits up to throttle_wait_us for the attached
  /// background reclaimer, then fails with Busy.
  Status AdmitHostWrite();

  /// Body of Write(), sans admission/latch: SubmitBatch drives it directly
  /// for its kWrite requests (the batch was admitted once at entry).
  Status WriteLocked(uint64_t lpn, SimTime issue, flash::OpOrigin origin,
                     const char* data, uint32_t object_id, SimTime* complete)
      REQUIRES(mu_);

  /// Bodies of Trim() and WaitBatch(), for SubmitBatch's trim requests and
  /// its no-ticket reap.
  Status TrimLocked(uint64_t lpn) REQUIRES(mu_);
  Status WaitBatchLocked(storage::IoTicket ticket, SimTime* complete)
      REQUIRES(mu_);

  /// Ensure the die has a host-active block with a free page; may run GC.
  Status PrepareHostSlot(flash::DieId die, SimTime issue,
                         flash::PhysAddr* slot) REQUIRES(mu_);

  /// Reclaim space on `die` until free-block count reaches the high
  /// watermark. Relocations use copyback (same die). Ops are issued at
  /// `issue` and extend the die horizon (queueing model).
  Status CollectDie(flash::DieId die, SimTime issue) REQUIRES(mu_);

  /// One incremental GC step on `die`, run after one host page was written
  /// there: relocate the victim's pace of valid pages (picking a victim if
  /// needed; see MapperOptions for the rule) and erase it once empty. No-op
  /// while the die is above the low watermark and no victim is in progress.
  Status GcStep(flash::DieId die, SimTime issue) REQUIRES(mu_);

  /// Start reclaiming a new victim on `ds`: pick it, count the GC run,
  /// record its valid count and resolve its OOB metadata array. False when
  /// no block is eligible.
  bool StartVictim(DieState& ds, SimTime now) REQUIRES(mu_);
  /// Forget the current victim (it was erased or is being scrubbed).
  static void EndVictim(DieState& ds) {
    ds.gc_victim = kNoBlock;
    ds.gc_victim_valid = 0;
    ds.gc_victim_meta = nullptr;
  }

  /// Fully reclaim one victim block (relocate all valid pages, erase).
  Status ReclaimVictim(flash::DieId die, SimTime issue) REQUIRES(mu_);

  /// Program the block's remaining erased pages with empty metadata so it
  /// counts as fully programmed (and can therefore be indexed as a GC
  /// candidate).
  void PadBlockFull(flash::DieId die, uint32_t block, SimTime issue)
      REQUIRES(mu_);

  /// Mark a block bad after a program/erase failure: it stays out of the
  /// free list forever; its remaining valid pages are relocated by GC.
  void RetireBlock(flash::DieId die, uint32_t block) REQUIRES(mu_);

  /// Erase a reclaimed victim and return it to the free list — or retire it
  /// if it is marked bad or the erase fails.
  Status EraseOrRetire(flash::DieId die, uint32_t block, SimTime issue)
      REQUIRES(mu_);

  /// Program one host/WL page with retry-on-new-slot bad-block handling.
  Status ProgramWithRetry(uint64_t lpn, SimTime issue, flash::OpOrigin origin,
                          const char* data, const flash::PageMetadata& meta,
                          flash::PhysAddr* slot, SimTime* complete)
      REQUIRES(mu_);

  /// Relocate one page out of `victim` into the die's GC append block.
  /// `ds` is the already-resolved die state and `victim_meta` the victim
  /// block's OOB metadata array (batched relocation amortizes those lookups
  /// over a whole victim — one device-metadata lookup per block, not per
  /// relocated page).
  Status RelocateOne(DieState& ds, uint32_t victim, flash::PageId page,
                     const flash::PageMetadata* victim_meta, SimTime issue)
      REQUIRES(mu_);

  /// Relocate up to `max_pages` valid pages out of `victim`, iterating the
  /// packed bitmap words directly. `*moved` receives the relocation count.
  Status RelocateFromVictim(DieState& ds, uint32_t victim, uint32_t max_pages,
                            SimTime issue, uint32_t* moved) REQUIRES(mu_);

  /// Destroy a block's page payloads: rescue its valid pages, detach it from
  /// any append-point/victim role, and erase it (retired blocks are erased in
  /// place and stay out of rotation). Used to remove aborted-batch orphans
  /// and torn-batch remnants from flash so they cannot resurface at a later
  /// recovery.
  Status ScrubBlock(flash::DieId die, uint32_t block, SimTime issue)
      REQUIRES(mu_);

  /// Phase-1 failure cleanup for WriteAtomicBatch: advance versions past the
  /// orphan copies of the first `programmed` batch pages and best-effort
  /// scrub the blocks that hold them (failures are queued for retry).
  void ScrubAbortedBatch(const std::vector<BatchPage>& pages,
                         const std::vector<flash::PhysAddr>& slots,
                         size_t programmed, uint64_t batch_id, SimTime issue)
      REQUIRES(mu_);

  /// Scrubs whose erase failed (no rescue space, worn or failing block);
  /// retried by RetryPendingScrubs. An entry is only dropped once the block
  /// no longer holds any page stamped with the offending batch id — the
  /// actual hazard, not a proxy like the erase count (which even a failed
  /// erase advances).
  struct PendingScrub {
    flash::DieId die;
    uint32_t block;
    uint64_t batch_id;
  };

  /// Scrub each listed block once (entries deduplicated), queueing every
  /// batch id of a failed block on pending_scrubs_ for retry. Shared by the
  /// abort path and recovery's torn-batch pass so both follow the same
  /// queueing contract.
  void ScrubBlocksBestEffort(std::vector<PendingScrub> blocks, SimTime issue)
      REQUIRES(mu_);

  /// Re-attempt previously failed scrubs. Called before a new atomic batch
  /// so surviving orphan payloads are gone before the commit watermark can
  /// move past their batch id. `only_die` restricts the pass to one die
  /// (background grants must not touch other — possibly busy — dies).
  void RetryPendingScrubs(SimTime issue, flash::DieId only_die = kAllDies)
      REQUIRES(mu_);

  /// True while `block` holds a programmed page stamped with `batch_id`.
  bool BlockHoldsBatchPages(flash::DieId die, uint32_t block,
                            uint64_t batch_id) const REQUIRES(mu_);

  // --- Read-path reliability (retry, health scrubs, salvage) ---

  /// Resolve a read whose first attempt already ran: retry transient
  /// failures with backoff (re-translating after each scrub pass, since a
  /// health scrub may relocate the page), queue disturbed/hard-failed
  /// blocks for scrub, and salvage hard-unreadable pages from a superseded
  /// on-flash copy (latest reads only — a snapshot read, read_seq != 0,
  /// retries against its own version resolution and reports hard failures
  /// as-is). On success fills `*complete`. Does not count
  /// stats_.host_reads — the call sites own that.
  Status FinishRead(uint64_t lpn, flash::PhysAddr addr, flash::OpResult r,
                    flash::OpOrigin origin, char* data, SimTime* complete,
                    uint64_t read_seq) REQUIRES(mu_);

  /// Queue `addr`'s block for a read-health scrub (dedup'd; checkpoint-
  /// reserved blocks and foreign dies are ignored).
  void QueueReadScrub(const flash::PhysAddr& addr) REQUIRES(mu_);

  /// Drain the read-health scrub queue: relocate each queued block's valid
  /// pages and erase it, so disturbed/failing blocks lose their data
  /// hazard before it becomes unreadable. Entries whose block was erased
  /// since queueing are dropped; blocks pinned by an in-flight atomic
  /// batch are revisited later. `only_die` restricts the pass to one die
  /// (background grants; entries for other dies are requeued untouched).
  void ProcessReadScrubs(SimTime issue, flash::DieId only_die = kAllDies)
      REQUIRES(mu_);

  /// Hard-unreadable current copy of `lpn`: find the newest still-readable
  /// superseded copy on flash (out-of-place updates leave them behind
  /// until GC), adopt it as the live mapping and read it into `data`.
  /// DataLoss when no candidate survives.
  Status SalvageSupersededCopy(uint64_t lpn, SimTime issue, char* data,
                               SimTime* complete) REQUIRES(mu_);

  /// Lowest non-empty candidate bucket of the die (pages_per_block_ when
  /// only fully-valid candidates, or none, are left); advances the cached
  /// min_bucket. Buckets examined are added to `*steps`.
  uint32_t LowestVictimBucket(DieState& ds, uint64_t* steps) REQUIRES(mu_);
  /// Pick a GC victim; kNoBlock if none eligible. Steps examined are added
  /// to `*steps` (stats attribution).
  uint32_t PickVictimImpl(DieState& ds, SimTime now, VictimIndex index,
                          uint64_t* steps) REQUIRES(mu_);
  /// Stats-counting wrapper used by the GC state machine.
  uint32_t PickVictim(DieState& ds, SimTime now) REQUIRES(mu_);

  /// Invalidate the physical page currently mapped to lpn, if any.
  void InvalidateOld(uint64_t lpn) REQUIRES(mu_);

  /// Record a fresh mapping lpn -> addr.
  void Map(uint64_t lpn, const flash::PhysAddr& addr) REQUIRES(mu_);

  // --- MVCC internals (options().snapshots != nullptr) ---

  /// One retained superseded copy: the version at `addr` carries commit
  /// sequence `seq` and was superseded by the write with sequence
  /// `next_seq` — it is the visible version for snapshots in
  /// [seq, next_seq). Chains are per-lpn vectors in increasing seq order.
  struct RetainedVersion {
    flash::PhysAddr addr;
    uint64_t seq;
    uint64_t next_seq;
  };

  /// Draw the commit sequence for a supersede/trim (0 when snapshots are
  /// not wired — no sequence space is consumed and retention never fires).
  uint64_t NextWriteSeq() REQUIRES(mu_);

  /// Commit sequence of the current copy of `lpn` (0 = written before any
  /// sequence was drawn: visible to every snapshot).
  uint64_t LastSeqOf(uint64_t lpn) const REQUIRES(mu_);
  void SetLastSeq(uint64_t lpn, uint64_t seq) REQUIRES(mu_);

  /// The supersede hook: if any live snapshot could still read the current
  /// copy of `lpn`, move it onto the lpn's retained chain (valid bit and
  /// back pointer kept — GC relocates it like any valid page); otherwise
  /// InvalidateOld. `new_seq` is the superseding write's sequence. Always
  /// records new_seq as the lpn's current sequence.
  void RetainOrInvalidate(uint64_t lpn, uint64_t new_seq) REQUIRES(mu_);

  /// Translate `lpn` for a read at snapshot `read_seq` (0 = latest).
  /// Returns the live mapping, a retained chain entry, or NotFound when the
  /// page did not exist at that snapshot (never written, or trimmed and not
  /// yet rewritten as of read_seq).
  Result<flash::PhysAddr> ResolveForRead(uint64_t lpn, uint64_t read_seq)
      const REQUIRES(mu_);

  /// Whether relocation sources from a retained chain rather than the live
  /// mapping: retained entry of `lpn` whose physical address is `addr`
  /// (nullptr if none — `addr` is the live copy or already gone).
  RetainedVersion* FindRetained(uint64_t lpn, const flash::PhysAddr& addr)
      REQUIRES(mu_);

  /// Remove the chain entry holding `addr` (its page was reclaimed in place
  /// or adopted as the live mapping).
  void DropRetained(uint64_t lpn, const flash::PhysAddr& addr) REQUIRES(mu_);

  /// Drop retained entries no live snapshot can read (ReclaimRetainedVersions
  /// body, shared with the relocation paths).
  void ReclaimRetainedLocked() REQUIRES(mu_);

  // --- Incremental-checkpoint internals ---

  /// Record that `lpn`'s recoverable state (mapping or version) changed
  /// since the last full checkpoint image. No-op unless delta checkpoints
  /// are possible (kMinDeltaCheckpointSlots).
  void MarkDirtyLpn(uint64_t lpn) REQUIRES(mu_);

  // --- Checkpointing internals (slot layout and serialization live in
  // src/ftl/checkpoint.{h,cc}) ---

  /// Snapshot the recoverable state into an image (quiesce must already
  /// have run: no half-reclaimed victims, no pinned batch blocks).
  CheckpointImage BuildCheckpointImage() const REQUIRES(mu_);
  Status WriteCheckpointInternal(SimTime issue, uint64_t max_pages,
                                 SimTime* complete) REQUIRES(mu_);
  /// Count `new_writes` toward the periodic trigger; best-effort write when
  /// the interval elapses (failures are logged and retried next interval).
  void MaybeAutoCheckpoint(uint64_t new_writes, SimTime now) REQUIRES(mu_);

  // --- Submission/completion queue internals ---

  /// One in-flight request. Reads hold a device CQ ticket (their completion
  /// lives on the device until reaped); writes/trims/translation failures
  /// resolve their outcome at submit and only the delivery is deferred.
  struct PendingIo {
    storage::IoRequest* req = nullptr;
    flash::Ticket dev_ticket = 0;  ///< nonzero: reap from the device CQ
    flash::PhysAddr addr{};  ///< translated read target (retry/scrub anchor)
    Status status;                  ///< resolved outcome when dev_ticket == 0
    SimTime complete = 0;
    uint64_t read_seq = 0;   ///< snapshot sequence of the read (0 = latest)
    bool host_read = false;  ///< count stats_.host_reads when it retires OK
  };

  struct PendingBatch {
    storage::IoTicket id = 0;
    SimTime issue = 0;
    SimTime done = 0;  ///< max successful completion so far (>= issue)
    flash::OpOrigin origin = flash::OpOrigin::kHost;
    std::vector<PendingIo> ios;
  };

  /// Deliver one entry: resolve (device reap if queued), fill the request's
  /// completion slots, update stats and the batch's done time.
  void RetireIo(PendingBatch* batch, PendingIo* io) REQUIRES(mu_);

  /// Shared body of RecoverFromDevice / DebugRecoverByFullScan.
  static Result<std::unique_ptr<OutOfPlaceMapper>> Recover(
      flash::FlashDevice* device, std::vector<flash::DieId> dies,
      uint64_t logical_pages, const MapperOptions& options, SimTime issue,
      SimTime* complete, bool via_checkpoint);

  /// Mapper latch (see class comment): a plain mutex at LockRank::kMapper,
  /// taken once per public entry and never re-entered.
  mutable Mutex mu_{LockRank::kMapper};

  flash::FlashDevice* device_;
  std::vector<flash::DieId> dies_ GUARDED_BY(mu_);
  /// Dense die state; `die_slot_` maps a global DieId to its slot here
  /// (kNoSlot when the die is not part of this mapper).
  std::vector<DieState> die_states_ GUARDED_BY(mu_);
  std::vector<uint32_t> die_slot_ GUARDED_BY(mu_);
  uint64_t logical_pages_;
  MapperOptions options_;
  uint32_t pages_per_block_ = 0;
  uint32_t words_per_block_ = 0;
  /// Blocks [data_blocks_per_die_, blocks_per_die) of every die are the
  /// reserved checkpoint slots: never allocated, never GC candidates,
  /// invisible to recovery's data scan.
  uint32_t reserved_per_die_ = 0;
  uint32_t data_blocks_per_die_ = 0;

  /// lpn -> phys; die == kUnmappedDie if unmapped.
  std::vector<flash::PhysAddr> l2p_ GUARDED_BY(mu_);
  static constexpr flash::DieId kUnmappedDie = ~0u;

  /// Per-lpn write version for OOB metadata.
  std::vector<uint64_t> versions_ GUARDED_BY(mu_);
  /// MVCC state (allocated lazily, only when options_.snapshots != null and
  /// the first sequence is drawn). last_seq_: commit sequence of each lpn's
  /// current copy (0 = pre-snapshot, visible to all). retained_: per-lpn
  /// version chains of superseded copies live snapshots may read; their
  /// pages keep the valid bit and count in total_valid_, so GC sees and
  /// relocates them like live data.
  std::vector<uint64_t> last_seq_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::vector<RetainedVersion>> retained_
      GUARDED_BY(mu_);
  uint64_t retained_count_ GUARDED_BY(mu_) = 0;
  /// Incremental checkpointing: packed dirty-lpn bitmap since the last full
  /// image (allocated lazily), distinct dirty lpns, and the epoch of the
  /// full image the bitmap is relative to (0 = none; next checkpoint is
  /// forced full).
  std::vector<uint64_t> dirty_words_ GUARDED_BY(mu_);
  uint64_t dirty_count_ GUARDED_BY(mu_) = 0;
  uint64_t base_full_epoch_ GUARDED_BY(mu_) = 0;
  uint64_t total_valid_ GUARDED_BY(mu_) = 0;
  size_t write_cursor_ GUARDED_BY(mu_) = 0;  ///< round-robin die cursor
  /// PickWriteDie's per-call copy of the dies' busy horizons (dies_ order).
  std::vector<SimTime> die_busy_ GUARDED_BY(mu_);
  uint64_t next_batch_id_ GUARDED_BY(mu_) = 1;
  /// Highest atomic-batch id committed so far; stamped into the OOB metadata
  /// of every subsequent program (see PageMetadata::committed_upto).
  uint64_t committed_batches_ GUARDED_BY(mu_) = 0;
  std::vector<PendingScrub> pending_scrubs_ GUARDED_BY(mu_);
  /// One queued read-health scrub (see QueueReadScrub). The erase count at
  /// queue time detects blocks erased since (hazard already gone); attempts
  /// bounds retries of scrubs whose erase keeps failing.
  struct ReadScrub {
    flash::DieId die;
    uint32_t block;
    uint32_t erase_count;
    uint32_t attempts;
  };
  std::vector<ReadScrub> read_scrubs_ GUARDED_BY(mu_);
  uint64_t retired_blocks_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<CheckpointStore> ckpt_ PT_GUARDED_BY(mu_);
  uint64_t checkpoint_epoch_ GUARDED_BY(mu_) = 0;
  /// Epoch of the newest checkpoint known to be valid on flash (0 = none):
  /// the next write must not target its slot, or a crash mid-write could
  /// destroy the only fallback while a torn slot holds garbage.
  uint64_t newest_valid_ckpt_epoch_ GUARDED_BY(mu_) = 0;
  uint64_t writes_since_checkpoint_ GUARDED_BY(mu_) = 0;
  /// In-flight batches in submission order.
  std::vector<PendingBatch> inflight_ GUARDED_BY(mu_);
  storage::IoTicket next_io_ticket_ GUARDED_BY(mu_) = 1;
  /// A live background reclaimer (scheduler service thread) is attached;
  /// see SetBackgroundReclaimer / AdmitHostWrite.
  std::atomic<bool> bg_reclaimer_{false};
  MapperStats stats_;
};

}  // namespace noftl::ftl
