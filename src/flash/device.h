// Simulated native NAND flash device.
//
// This is the substrate that replaces the open-channel SSD hardware of the
// NoFTL prototype. It exposes exactly the "Native Flash Interface" of the
// paper's Figure 1 — Read/Program Page, Erase Block, Copyback, and page
// metadata (OOB) handling — and enforces real NAND constraints:
//
//   * erase-before-program: a page can be programmed only once per erase;
//   * sequential programming: pages within a block must be programmed in
//     ascending order;
//   * endurance: erasing beyond the configured cycle budget fails.
//
// Timing: every die and every channel keeps a timeline of reservations
// (flash/timeline.h). An operation is booked at the earliest time, at or
// after its *ready time*, at which its die is free — and, for a page
// transfer, its channel too — so it backfills idle gaps left between
// reservations instead of queueing behind whatever was booked last. No
// reservation, once made, ever moves. The ready time is the issue time,
// raised to what the flash array physically requires:
//
//   * a read (or a copyback source) starts after that page's program (an
//     erased page: after its block's erase);
//   * a program (or a copyback destination) starts after its block's erase
//     and after the program of the block's previous page;
//   * an erase starts after every op already booked on its block.
//
// A read holds the die for array read + transfer and needs the channel for
// the transfer; a program holds the die for transfer + program and needs
// the channel for the transfer; copyback, erase and OOB reads use the die
// only. The device returns each op's start and completion; it never
// advances any global clock itself, so callers decide what is synchronous
// (host reads) and what runs in the background (GC, flushers). This is how
// the simulation reproduces queueing delay — the dominant term in the
// paper's 4 KB latencies — without threads. Flash array state (data,
// metadata, program cursors) still changes in call order.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"

#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/geometry.h"
#include "flash/stats.h"
#include "flash/timeline.h"

namespace noftl::flash {

/// Handle of one queued operation on the device's completion queue.
/// 0 is never a valid ticket.
using Ticket = uint64_t;

/// Out-of-band (spare area) metadata stored with every programmed page.
/// NoFTL uses it to make address translation recoverable and to tag pages
/// with the owning database object.
struct PageMetadata {
  static constexpr uint64_t kUnset = ~0ull;

  uint64_t logical_id = kUnset;  ///< logical page the content belongs to
  uint64_t version = 0;          ///< monotonically increasing write version
  uint32_t object_id = 0;        ///< owning database object (region use)
  /// Atomic-write batch stamp: all pages of a batch carry the same nonzero
  /// id and the batch size; recovery ignores incomplete batches.
  uint64_t batch_id = 0;
  uint32_t batch_size = 0;
  /// Commit watermark: the highest atomic-batch id already committed when
  /// this page was programmed. Recovery takes the maximum over all surviving
  /// pages; a batch at or below it is known committed even if garbage
  /// collection has since erased some of its batch-marked copies.
  uint64_t committed_upto = 0;

  bool operator==(const PageMetadata&) const = default;
};

/// Deterministic fault injection (tests, failure benches). Rates are per
/// operation; a failed program burns its page (the block cursor advances,
/// the data is lost), a failed erase leaves the block unusable — callers
/// are expected to retire such blocks like real FTL bad-block management.
///
/// Read faults come in two flavours. *Transient* failures (ECC hiccups,
/// read-disturb noise) fail one read attempt; a retry of the same page may
/// succeed, and `OpResult::transient` marks them so upper layers know a
/// retry is worthwhile. *Hard* failures permanently mark the page
/// unreadable until its block is erased — the model of an uncorrectable
/// page, which the DBMS-side reliability layer must scrub around.
struct FaultOptions {
  double program_failure_rate = 0.0;
  double erase_failure_rate = 0.0;
  /// Per-read chance of a one-shot failure (retry may succeed).
  double read_transient_rate = 0.0;
  /// Per-read chance the page goes permanently unreadable (until erase).
  double read_hard_rate = 0.0;
  /// Read-disturb model: once a block has been read more than this many
  /// times since its last erase, each further read of it additionally
  /// fails transiently with `read_disturb_rate` and the result carries
  /// `OpResult::disturbed` so callers can relocate the block's data before
  /// it degrades further. 0 disables the disturb model.
  uint64_t read_disturb_limit = 0;
  double read_disturb_rate = 1.0;
  /// Faults are drawn from an independent stream per die, derived from
  /// `seed`. A die's fault schedule then depends only on the sequence of ops
  /// *that die* services, so it is invariant across batch interleavings and
  /// shard layouts that reorder ops between dies — required for
  /// cross-configuration equivalence digests to hold under faults.
  uint64_t seed = 0x5eed;
};

/// Lifecycle state of a physical page as the flash array sees it.
enum class PageState : uint8_t {
  kErased = 0,      ///< programmable
  kProgrammed = 1,  ///< holds data; must be erased before reprogramming
};

/// Result of a scheduled flash operation.
struct OpResult {
  Status status;
  SimTime start = 0;     ///< when the die began servicing the op
  SimTime complete = 0;  ///< when the op (incl. channel transfer) finished
  /// Failed read that may succeed on retry (vs. a hard/permanent error).
  bool transient = false;
  /// The read hit a block past its read-disturb limit (set on success and
  /// failure alike): the block's data should be relocated soon.
  bool disturbed = false;

  bool ok() const { return status.ok(); }
};

/// One page read of a vectored submission (see FlashDevice::ReadPages).
struct PageReadOp {
  PhysAddr addr;
  char* data = nullptr;       ///< receives page_size bytes if non-null
  PageMetadata* meta = nullptr;
};

/// One page program of a vectored submission (see FlashDevice::ProgramPages).
struct PageProgramOp {
  PhysAddr addr;
  const char* data = nullptr;  ///< may be null (space-management experiments)
  PageMetadata meta;
};

/// The simulated device. Thread-safe: every public operation takes the
/// device latch (a plain mutex at LockRank::kDevice; the queued and
/// vectored surfaces share code with the synchronous entry points through
/// private *Locked helpers, so nothing ever re-enters the latch), so
/// concurrent workers can read, program and reap completions on one device.
/// The simulation itself stays deterministic when driven by one thread: the
/// latch adds no behaviour, only exclusion. Ticket ownership is unchanged —
/// a ticket is reaped only by its submitter, so the latch guards the queue
/// structure, not delivery semantics.
class FlashDevice {
 public:
  FlashDevice(const FlashGeometry& geometry, const FlashTiming& timing);

  const FlashGeometry& geometry() const { return geometry_; }
  const FlashTiming& timing() const { return timing_; }

  /// Read one page. If `data` is non-null it receives page_size bytes; if
  /// `meta` is non-null it receives the OOB metadata. Reading an erased page
  /// returns all-0xFF data and unset metadata (real NAND behaviour).
  OpResult ReadPage(const PhysAddr& addr, SimTime issue, OpOrigin origin,
                    char* data, PageMetadata* meta);

  /// Read only the OOB (spare area) metadata of a page: the array read
  /// occupies the die, but the few dozen spare bytes never occupy the
  /// channel. Recovery issues these as independent per-die streams, so a
  /// whole-device OOB scan completes in the *max* of the per-die scan times
  /// instead of serializing dies behind shared channels.
  OpResult ReadOob(const PhysAddr& addr, SimTime issue, OpOrigin origin,
                   PageMetadata* meta);

  /// Vectored read submission: every op is issued at `issue` and booked in
  /// submission order, each at the earliest free time of its die and
  /// channel (see the timing notes above) — ops on the same die serialize,
  /// ops on distinct dies overlap (their transfers still share a channel).
  /// `results[i]` receives the i-th op's outcome; the submission completes
  /// at the max over the per-op completion times. Equivalent to calling
  /// ReadPage once per op at the same `issue`, so batched and serial
  /// execution are interchangeable.
  void ReadPages(const PageReadOp* ops, size_t count, SimTime issue,
                 OpOrigin origin, OpResult* results);

  /// Vectored program submission; same scheduling contract as ReadPages.
  /// Sequential-programming and erase-before-program constraints apply per
  /// op; a failed op does not stop the remaining ops of the submission
  /// (callers that must stop at the first failure should submit smaller
  /// batches or check results in order).
  void ProgramPages(const PageProgramOp* ops, size_t count, SimTime issue,
                    OpOrigin origin, OpResult* results);

  // --- Queued (submit/reap) surface -----------------------------------
  //
  // NVMe-style event-driven I/O: SubmitRead enqueues a read and returns a
  // ticket immediately — the caller's clock does not advance. The op is
  // booked at submission exactly as the synchronous calls would book it:
  // at the earliest free time of its die (and channel) at or after its
  // ready time, so ops complete out of order whenever an earlier-ready op
  // finds an idle gap. Results are delivered only when reaped: WaitFor reaps
  // one specific ticket, whose result says when the op completed. An op's
  // side effects on the flash array happen at submission, in call order, so
  // submit-then-reap and call-and-resolve executions are byte-identical.
  //
  // Ownership: a ticket belongs to whoever submitted it, and only its
  // submitter reaps it — layers that share one device (e.g. two regions'
  // mappers) never see each other's tickets.

  /// Enqueue one page read (scheduling contract of ReadPages). The data and
  /// OOB buffers of `op` are filled by the array read at its queue position;
  /// the caller must keep them alive until the ticket is reaped.
  Ticket SubmitRead(const PageReadOp& op, SimTime issue, OpOrigin origin);

  /// Reap one ticket regardless of the current caller time — the caller
  /// commits to waiting until the op's completion (result.complete says when
  /// that is). Works whether or not the op has already retired relative to
  /// any clock; InvalidArgument if the ticket is unknown or was already
  /// reaped.
  Result<OpResult> WaitFor(Ticket ticket);

  /// Outstanding (submitted, not yet reaped) queued operations.
  size_t QueueDepth() const {
    MutexLock lock(mu_);
    return cq_.size();
  }

  // --- Idle-query surface (background scheduler) -----------------------

  /// Host-origin queued ops submitted against `die` and not yet reaped —
  /// the "foreground work queued here" signal the background scheduler
  /// checks before granting the die to housekeeping.
  uint32_t DiePendingHostOps(DieId die) const {
    MutexLock lock(mu_);
    return dies_[die].pending_host;
  }

  /// True when the die's last reservation ends by `now` and no submitted
  /// host op is awaiting service or reap: safe to grant to background work.
  bool DieIdleAt(DieId die, SimTime now) const {
    MutexLock lock(mu_);
    return dies_[die].timeline.end() <= now && dies_[die].pending_host == 0;
  }

  /// Program one page. `data` may be null for space-management-only
  /// experiments (metadata is still stored). Fails with InvalidArgument if
  /// the page is not the next sequential page of its block, or Corruption if
  /// the page was already programmed since the last erase.
  OpResult ProgramPage(const PhysAddr& addr, SimTime issue, OpOrigin origin,
                       const char* data, const PageMetadata& meta);

  /// Erase a whole block; frees its payload and resets the program cursor.
  OpResult EraseBlock(DieId die, BlockId block, SimTime issue, OpOrigin origin);

  /// Copy a programmed page to an erased page *within the same die* without
  /// occupying the channel (NAND copyback command). `new_meta`, if non-null,
  /// replaces the OOB metadata at the destination (NoFTL updates the logical
  /// back-pointer during GC relocation).
  OpResult Copyback(DieId die, BlockId src_block, PageId src_page,
                    BlockId dst_block, PageId dst_page, SimTime issue,
                    OpOrigin origin, const PageMetadata* new_meta);

  // --- Inspection (no timing cost; used by translation layers & tests) ---

  PageState GetPageState(const PhysAddr& addr) const;
  /// OOB metadata without simulating an I/O (translation layers keep their
  /// own copy; tests use this to cross-check).
  PageMetadata PeekMetadata(const PhysAddr& addr) const;
  /// All OOB metadata of one block in a single device-metadata lookup (GC
  /// relocation resolves a victim block once instead of per page). Entry i
  /// is valid only while page i stays programmed and the block unerased.
  const PageMetadata* PeekBlockMetadata(DieId die, BlockId block) const;
  uint32_t EraseCount(DieId die, BlockId block) const;
  /// Next page that must be programmed in the block (== pages_per_block when
  /// the block is fully programmed).
  PageId NextProgramPage(DieId die, BlockId block) const;

  /// Mutation epochs: every state-changing operation (program, copyback,
  /// erase — successful or burned) advances a device-wide sequence number
  /// and stamps it on the affected block. A checkpoint records the current
  /// sequence; at recovery, blocks whose stamp is at or below it provably
  /// hold exactly what they held at checkpoint time and need no rescan.
  uint64_t mutation_seq() const {
    MutexLock lock(mu_);
    return mutation_seq_;
  }
  uint64_t BlockMutationSeq(DieId die, BlockId block) const;
  /// End of the die's (channel's) last reservation; idle gaps before it
  /// may still take earlier-ready ops.
  SimTime DieBusyUntil(DieId die) const {
    MutexLock lock(mu_);
    return dies_[die].timeline.end();
  }
  /// DieBusyUntil of `count` dies under one latch acquisition (write
  /// placement compares a whole die set on every write).
  void DiesBusyUntil(const DieId* dies, size_t count, SimTime* out) const {
    MutexLock lock(mu_);
    for (size_t i = 0; i < count; i++) out[i] = dies_[dies[i]].timeline.end();
  }
  SimTime ChannelBusyUntil(uint32_t ch) const {
    MutexLock lock(mu_);
    return channels_[ch].end();
  }

  /// Accumulated busy time of a die (for utilization reports).
  SimTime DieBusyTime(DieId die) const {
    MutexLock lock(mu_);
    return dies_[die].busy_time;
  }

  FlashStats& stats() { return stats_; }
  const FlashStats& stats() const { return stats_; }

  /// Locked copies of the host-latency histograms. The live objects inside
  /// stats() are recorded under the device latch; merging them from a
  /// report thread while I/O is in flight reads torn counts. Reporting
  /// paths merge from these snapshots instead.
  Histogram HostReadLatency() const {
    MutexLock lock(mu_);
    return stats_.host_read_latency_us;
  }
  Histogram HostWriteLatency() const {
    MutexLock lock(mu_);
    return stats_.host_write_latency_us;
  }

  /// Enable fault injection from this point on.
  void SetFaults(const FaultOptions& faults);
  uint64_t program_failures() const { return program_failures_; }
  uint64_t erase_failures() const { return erase_failures_; }
  uint64_t read_failures_transient() const { return read_failures_transient_; }
  uint64_t read_failures_hard() const { return read_failures_hard_; }
  /// Data reads of the block since its last successful erase (the
  /// read-disturb wear the scrub policy watches). OOB-only reads don't count.
  uint64_t BlockReadCount(DieId die, BlockId block) const;

  // --- Crash injection (recovery sweep harness) ------------------------
  //
  // Arms a crash point: mutations up to and including sequence number `k`
  // succeed, then every subsequent state-changing operation (program,
  // copyback, erase) fails with IOError and leaves the array untouched —
  // the moment power was cut. Reads keep working (the sweep harness reads
  // nothing after the crash; recovery runs on a fresh stack). Sweeping k
  // over 1..mutation_seq() of a recorded workload enumerates every
  // possible crash boundary.
  void DebugCrashAfterMutations(uint64_t k) {
    MutexLock lock(mu_);
    crash_armed_ = true;
    crash_after_mutations_ = k;
    crashed_ = false;
  }
  bool crashed() const {
    MutexLock lock(mu_);
    return crashed_;
  }
  void DebugClearCrash() {
    MutexLock lock(mu_);
    crash_armed_ = false;
    crashed_ = false;
  }

  /// Test hook: mark one page permanently unreadable, as if a hard read
  /// failure had burned it (cleared by the block's next erase). Lets a test
  /// target a specific copy instead of drawing from the fault stream.
  void DebugMarkPageUnreadable(const PhysAddr& addr) {
    MutexLock lock(mu_);
    dies_[addr.die].blocks[addr.block].unreadable[addr.page] = 1;
  }

  /// Maximum / minimum / average erase count across all blocks (wear spread).
  void WearSummary(uint32_t* min_erases, uint32_t* max_erases,
                   double* avg_erases) const;

 private:
  struct Block {
    uint32_t erase_count = 0;
    PageId next_program = 0;  ///< sequential-programming cursor
    uint64_t mutation_seq = 0;  ///< device-wide seq of the last state change
    uint64_t read_count = 0;  ///< data reads since last erase (read disturb)
    std::unique_ptr<char[]> data;  ///< lazily allocated payload
    std::vector<PageMetadata> meta;
    std::vector<PageState> state;
    std::vector<uint8_t> unreadable;  ///< hard read failures; reset by erase
    /// Completion (µs) of the op that last changed each page — its program
    /// or copyback, or the block's erase: a read of the page starts no
    /// earlier. Kept apart from `state`, and read only when the block
    /// changed after the read's issue (ReadyToRead), so the hot per-page
    /// bytes stay small. Allocated by the block's first program or erase
    /// (WrittenAt), like `data`, so building a device stays cheap.
    std::unique_ptr<SimTime[]> written_at;
    /// Completion of the block's latest erase, program or copyback-in: the
    /// ready time of its next program (pages program in order, after the
    /// erase).
    SimTime written_until = 0;
    SimTime booked_until = 0;  ///< end of the latest op booked on the block
  };

  struct Die {
    std::vector<Block> blocks;
    Timeline timeline;
    SimTime busy_time = 0;  ///< accumulated service time
    /// Submitted-unreaped host-origin queued ops (see DiePendingHostOps).
    uint32_t pending_host = 0;
  };

  /// One outstanding queued op: the result computed at submit, plus the
  /// die/origin needed to maintain the per-die pending-host counts at reap.
  struct CqEntry {
    OpResult result;
    DieId die = 0;
    OpOrigin origin = OpOrigin::kHost;
  };

  Block& BlockAt(DieId die, BlockId block) REQUIRES(mu_) {
    return dies_[die].blocks[block];
  }
  const Block& BlockAt(DieId die, BlockId block) const REQUIRES(mu_) {
    return dies_[die].blocks[block];
  }

  /// Single-op bodies, shared by the synchronous, vectored and queued
  /// surfaces. The public wrappers take the latch once; nothing in here
  /// re-acquires it — which is why the latch is a plain (non-recursive)
  /// mutex.
  OpResult ReadPageLocked(const PhysAddr& addr, SimTime issue, OpOrigin origin,
                          char* data, PageMetadata* meta) REQUIRES(mu_);
  OpResult ProgramPageLocked(const PhysAddr& addr, SimTime issue,
                             OpOrigin origin, const char* data,
                             const PageMetadata& meta) REQUIRES(mu_);

  /// Ready time of a read of `page` issued at `issue`: not before the op
  /// that last changed the page. Every page of the block last changed by
  /// written_until, so the per-page time is consulted only before that.
  /// written_until > 0 only once written_at exists.
  static SimTime ReadyToRead(const Block& block, PageId page, SimTime issue) {
    return block.written_until <= issue
               ? issue
               : std::max(issue, block.written_at[page]);
  }

  /// The block's written_at, allocated (zeroed) on first use.
  SimTime* WrittenAt(Block& block) const {
    if (block.written_at == nullptr) {
      block.written_at = std::make_unique<SimTime[]>(geometry_.pages_per_block);
    }
    return block.written_at.get();
  }

  /// Book `duration` of die time at the earliest free time >= `ready`;
  /// returns the start.
  SimTime BookDie(DieId die, SimTime ready, SimTime duration) REQUIRES(mu_);
  /// Book `duration` of die time plus one page transfer on the die's
  /// channel, `xfer_offset` into the die reservation, at the earliest time
  /// >= `ready` at which both are free; returns the start.
  SimTime BookDieAndChannel(DieId die, SimTime ready, SimTime duration,
                            SimTime xfer_offset) REQUIRES(mu_);

  Status CheckAddr(const PhysAddr& addr) const;

  /// Park a submitted op's result on the completion queue; returns its
  /// ticket.
  Ticket Enqueue(const OpResult& result, DieId die, OpOrigin origin)
      REQUIRES(mu_);

  /// True if the next operation of the given kind (on `die`) should fail.
  bool InjectFault(DieId die, double rate) REQUIRES(mu_);

  /// True once the armed crash point has been reached; the calling mutation
  /// (and all later ones) must fail without touching the array.
  bool CrashPointHit() REQUIRES(mu_);

  FlashGeometry geometry_;
  FlashTiming timing_;
  /// Device latch: every public entry locks it, exactly once (the shared
  /// single-op bodies live in *Locked helpers). LockRank::kDevice — the
  /// innermost latch of the I/O stack.
  mutable Mutex mu_{LockRank::kDevice};
  std::vector<Die> dies_ GUARDED_BY(mu_);
  std::vector<Timeline> channels_ GUARDED_BY(mu_);
  /// Completion queue: outstanding queued ops keyed by ticket (== submission
  /// order). The schedule is computed at submit (deterministic single-thread
  /// simulation); the entry holds the result until the caller reaps it.
  std::map<Ticket, CqEntry> cq_ GUARDED_BY(mu_);
  Ticket next_ticket_ GUARDED_BY(mu_) = 1;
  /// Counters recorded inside locked methods; readable unlocked (relaxed).
  FlashStats stats_;
  FaultOptions faults_ GUARDED_BY(mu_);
  uint64_t mutation_seq_ GUARDED_BY(mu_) = 0;
  /// One xorshift fault stream per die.
  std::vector<uint64_t> die_fault_rng_ GUARDED_BY(mu_);
  RelaxedCounter program_failures_ = 0;
  RelaxedCounter erase_failures_ = 0;
  RelaxedCounter read_failures_transient_ = 0;
  RelaxedCounter read_failures_hard_ = 0;
  bool crash_armed_ GUARDED_BY(mu_) = false;
  bool crashed_ GUARDED_BY(mu_) = false;
  uint64_t crash_after_mutations_ GUARDED_BY(mu_) = 0;
};

}  // namespace noftl::flash
