// Runtime lock-hierarchy validation — the dynamic half of the lock
// discipline (the static half is Clang Thread Safety Analysis, see
// common/thread_annotations.h).
//
// Every annotated mutex (common/annotated_mutex.h) carries a rank from the
// canonical LockRank enum below, which encodes the PR 7 hierarchy as ONE
// machine-checked order. Each acquisition pushes onto a thread-local
// held-lock stack; acquiring a rank lower than (or equal to, unless the
// rank explicitly allows it) the highest rank already held aborts the
// process with the stack trace of the offending acquisition AND the stack
// trace captured when the conflicting lock was taken — so an order
// inversion is caught on first execution, not only when two threads happen
// to interleave into a deadlock.
//
// The checks compile to nothing in optimized builds (NDEBUG) and are active
// in Debug and sanitizer builds, where the whole test suite runs under
// them. The validator functions themselves are always compiled so the
// death tests in tests/test_lock_hierarchy.cc can drive the checker
// directly in any build type.
#pragma once

#include <cstddef>
#include <cstdint>

// Gates the per-acquisition tracking calls in the annotated mutex wrappers
// (and the NOFTL_ASSERT_NO_UPPER_LATCHES checkpoints). Overridable from the
// build system; by default it follows the build type so the tier-1
// RelWithDebInfo build pays zero cost.
#ifndef NOFTL_LOCK_HIERARCHY_CHECKS
#ifdef NDEBUG
#define NOFTL_LOCK_HIERARCHY_CHECKS 0
#else
#define NOFTL_LOCK_HIERARCHY_CHECKS 1
#endif
#endif

namespace noftl {

/// The canonical lock order, ascending = acquired later (deeper in the
/// stack). A thread may acquire a lock only while holding locks of strictly
/// lower rank — except ranks flagged by LockRankAllowsSameRank, which may be
/// held several times at once (see each rank's note). Gaps between values
/// are deliberate: future latches slot in without renumbering.
enum class LockRank : uint16_t {
  /// ShardRouter DDL/health mutex — outermost: region fan-out, health
  /// sweeps and placement-hint broadcasts reach every lower layer.
  kRouter = 50,
  /// TPC-C per-warehouse transaction locks. Multi-acquisition is the norm
  /// (remote-warehouse NewOrder/Payment); deadlock-freedom comes from
  /// ScopedWarehouseLocks acquiring in sorted warehouse order.
  kWarehouse = 100,
  /// B-tree latch. Strictly above the heap latch: StockLevel reads heap
  /// rows inside an index ScanRange callback, never the reverse.
  kIndex = 200,
  /// Heap-file table latch.
  kHeap = 250,
  /// Buffer-pool shared latch. Never held across backend I/O — every I/O
  /// window drops it (enforced by NOFTL_ASSERT_NO_UPPER_LATCHES).
  kBufferPool = 300,
  /// Tablespace page-map latch (meta_mu_). Held across provider trims on
  /// the FreePage path, hence below the mapper.
  kTablespaceMeta = 400,
  /// ShardedSpace extent-allocation lock; taken before the per-shard
  /// allocator locks it probes.
  kShardAlloc = 500,
  /// Region / FtlSpace extent-allocator locks (free-span lists). Region::
  /// FreeExtent trims through the mapper under this lock.
  kBackendAlloc = 520,
  /// Tablespace in-flight-submission map (pending_mu_). Taken and released
  /// around provider calls, never across them.
  kTablespacePending = 560,
  /// BackgroundScheduler state mutex. Held by the service thread across the
  /// mapper/device calls that issue background work, hence strictly below
  /// kMapper; DDL/checkpoint quiesce takes it under the router lock only.
  kScheduler = 580,
  /// SnapshotManager state mutex (live-snapshot set, horizon publication).
  /// Release() fans reclamation out to the mappers under it, hence strictly
  /// below kMapper; the mapper write path reads the horizon through lock-free
  /// atomics and never takes it.
  kSnapshot = 590,
  /// Per-mapper latch (OutOfPlaceMapper::mu_, a plain mutex). No foreign
  /// code runs under it and no path holds two mappers at once, so a second
  /// mapper acquisition on one thread — the same latch or a sibling's — is a
  /// bug and aborts.
  kMapper = 600,
  /// Flash-device latch. Innermost of the I/O stack proper.
  kDevice = 700,
  /// ShardedSpace merged-ticket map (mu_). A leaf in practice: taken
  /// briefly to register or detach a merged ticket, never held across shard
  /// calls, so it ranks below only the leaf bookkeeping.
  kShardPending = 800,
  /// Leaf bookkeeping with no lock acquired beneath it: ObjectIoStats,
  /// PageIo fallback-ticket map, the threaded TPC-C driver's clock gate.
  kLeafStats = 900,
};

/// Ranks a thread may hold more than once concurrently (distinct objects).
constexpr bool LockRankAllowsSameRank(LockRank rank) {
  return rank == LockRank::kWarehouse;
}

const char* LockRankName(LockRank rank);

namespace lockcheck {

/// Record an acquisition of `lock` at `rank` by this thread; aborts with
/// both stack traces if it inverts the hierarchy. Shared and exclusive
/// holds rank identically.
void OnAcquire(LockRank rank, const void* lock);

/// Record the release of the most recent hold of `lock` by this thread;
/// aborts if the thread does not hold it.
void OnRelease(const void* lock);

/// Locks currently held by this thread.
size_t HeldCount();

/// Whether this thread currently holds `lock`.
bool IsHeld(const void* lock);

/// Abort (with the offender's acquisition stack trace) if this thread holds
/// any latch the I/O contract requires released at device/mapper entry:
/// the buffer-pool latch or a pending-submission map (kBufferPool,
/// kTablespacePending, kShardPending). Table/index/warehouse latches and
/// the tablespace page map are legitimately held across backend I/O (a
/// heap scan fixes pages under its latch; FreePage trims under meta_mu_)
/// and are not checked.
void AssertNoUpperLatches(const char* where);

/// Drop every record held by this thread. Test hygiene only: lets a death
/// test's parent process recover after driving the checker by hand.
void ResetThreadForTest();

}  // namespace lockcheck
}  // namespace noftl

/// Checkpoint for the I/O-with-latches-released invariant; placed at every
/// device/mapper submission, read, program and reap entry. No-op in
/// optimized builds.
#if NOFTL_LOCK_HIERARCHY_CHECKS
#define NOFTL_ASSERT_NO_UPPER_LATCHES() \
  ::noftl::lockcheck::AssertNoUpperLatches(__func__)
#else
#define NOFTL_ASSERT_NO_UPPER_LATCHES() ((void)0)
#endif
