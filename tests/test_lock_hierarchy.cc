// Lock-discipline validator tests: the runtime half of the PR's compile-time
// lock hierarchy. The first group drives the lockcheck API directly — those
// functions are always compiled, so the death tests run in every build type.
// The second group goes through the annotated mutex wrappers and a real
// flash device, and is active only when NOFTL_LOCK_HIERARCHY_CHECKS is on
// (Debug / sanitizer builds), matching what production code pays.
#include <gtest/gtest.h>

#include "common/annotated_mutex.h"
#include "common/lock_hierarchy.h"
#include "flash/device.h"

namespace noftl {
namespace {

using lockcheck::HeldCount;
using lockcheck::IsHeld;
using lockcheck::OnAcquire;
using lockcheck::OnRelease;
using lockcheck::ResetThreadForTest;

// Each test leaves the thread-local held stack empty; death-test children
// fork with whatever the parent holds, so hygiene here keeps every
// EXPECT_DEATH scenario self-contained.
class LockHierarchyTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetThreadForTest(); }
  void TearDown() override { ResetThreadForTest(); }
};

int a, b, c;  // stable distinct addresses standing in for lock objects

TEST_F(LockHierarchyTest, AscendingOrderPasses) {
  OnAcquire(LockRank::kWarehouse, &a);
  OnAcquire(LockRank::kIndex, &b);
  OnAcquire(LockRank::kDevice, &c);
  EXPECT_EQ(HeldCount(), 3u);
  EXPECT_TRUE(IsHeld(&b));
  OnRelease(&c);
  OnRelease(&b);
  OnRelease(&a);
  EXPECT_EQ(HeldCount(), 0u);
}

TEST_F(LockHierarchyTest, RankInversionDies) {
  OnAcquire(LockRank::kDevice, &a);
  EXPECT_DEATH(OnAcquire(LockRank::kBufferPool, &b),
               "lock-hierarchy violation");
}

TEST_F(LockHierarchyTest, SameRankWithoutAllowanceDies) {
  OnAcquire(LockRank::kBufferPool, &a);
  EXPECT_DEATH(OnAcquire(LockRank::kBufferPool, &b),
               "does not allow same-rank holds");
}

TEST_F(LockHierarchyTest, SameRankAllowedForWarehouse) {
  OnAcquire(LockRank::kWarehouse, &a);
  OnAcquire(LockRank::kWarehouse, &b);  // remote-warehouse NewOrder
  OnRelease(&b);
  OnRelease(&a);
  EXPECT_EQ(HeldCount(), 0u);
}

TEST_F(LockHierarchyTest, MapperLatchReacquiredOnSameThreadDies) {
  // The mapper latch is a plain mutex: no completion callback runs under
  // it, so a second acquisition on one thread — of the same mapper or a
  // sibling — is a bug the checker must catch before it can deadlock.
  OnAcquire(LockRank::kMapper, &a);
  EXPECT_DEATH(OnAcquire(LockRank::kMapper, &a),
               "does not allow same-rank holds");
  EXPECT_DEATH(OnAcquire(LockRank::kMapper, &b),
               "does not allow same-rank holds");
}

TEST_F(LockHierarchyTest, ReleasingUnheldLockDies) {
  EXPECT_DEATH(OnRelease(&a), "does not hold");
}

TEST_F(LockHierarchyTest, NonLifoReleaseIsLegal) {
  // The buffer pool's unlock()/lock() windows release mid-stack.
  OnAcquire(LockRank::kBufferPool, &a);
  OnAcquire(LockRank::kMapper, &b);
  OnRelease(&a);
  EXPECT_TRUE(IsHeld(&b));
  EXPECT_FALSE(IsHeld(&a));
  OnRelease(&b);
}

TEST_F(LockHierarchyTest, AssertNoUpperLatchesDiesOnBufferPoolHold) {
  OnAcquire(LockRank::kBufferPool, &a);
  EXPECT_DEATH(lockcheck::AssertNoUpperLatches("SubmitBatch"),
               "upper latches released");
}

TEST_F(LockHierarchyTest, AssertNoUpperLatchesTolersatesTableLatches) {
  // Heap/index/warehouse latches and the tablespace page map are legally
  // held across backend I/O — only the pool latch and pending maps are not.
  OnAcquire(LockRank::kWarehouse, &a);
  OnAcquire(LockRank::kHeap, &b);
  OnAcquire(LockRank::kTablespaceMeta, &c);
  lockcheck::AssertNoUpperLatches("SubmitBatch");  // must not die
  OnRelease(&c);
  OnRelease(&b);
  OnRelease(&a);
}

#if NOFTL_LOCK_HIERARCHY_CHECKS

// --- Wrapper integration: the annotated mutexes feed the checker ---

TEST_F(LockHierarchyTest, WrappersTrackAcquisitions) {
  Mutex low(LockRank::kWarehouse);
  SharedMutex mid(LockRank::kBufferPool);
  Mutex high(LockRank::kDevice);
  {
    MutexLock l1(low);
    ReaderLock l2(mid);  // shared holds rank identically
    MutexLock l3(high);
    EXPECT_EQ(HeldCount(), 3u);
    EXPECT_TRUE(IsHeld(&mid));
  }
  EXPECT_EQ(HeldCount(), 0u);
}

TEST_F(LockHierarchyTest, WrapperInversionDies) {
  Mutex device(LockRank::kDevice);
  Mutex pool(LockRank::kBufferPool);
  MutexLock hold(device);
  EXPECT_DEATH(MutexLock bad(pool), "lock-hierarchy violation");
}

TEST_F(LockHierarchyTest, WrapperMapperReentryDiesBeforeBlocking) {
  // A plain mutex re-locked on its own thread would hang; the rank check
  // runs first and turns the self-deadlock into an abort.
  Mutex mapper(LockRank::kMapper);
  MutexLock hold(mapper);
  EXPECT_DEATH(MutexLock again(mapper), "does not allow same-rank holds");
}

TEST_F(LockHierarchyTest, GuardWindowReleasesTracking) {
  SharedMutex latch(LockRank::kBufferPool);
  WriterLock lock(latch);
  EXPECT_TRUE(IsHeld(&latch));
  lock.unlock();  // the pool's I/O window
  EXPECT_FALSE(IsHeld(&latch));
  lock.lock();
  EXPECT_TRUE(IsHeld(&latch));
}

// Holding the buffer-pool latch across a device call is exactly the bug the
// NOFTL_ASSERT_NO_UPPER_LATCHES checkpoints exist to catch: the device
// entry must die before touching flash.
TEST_F(LockHierarchyTest, LatchHeldAcrossDeviceReadDies) {
  flash::FlashGeometry geo;
  geo.channels = 1;
  geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 4;
  geo.pages_per_block = 4;
  geo.page_size = 512;
  flash::FlashDevice device(geo, flash::FlashTiming{});
  SharedMutex pool_latch(LockRank::kBufferPool);
  std::vector<char> buf(geo.page_size);
  WriterLock held(pool_latch);
  EXPECT_DEATH(
      (void)device.ReadPage({0, 0, 0}, /*issue=*/0, flash::OpOrigin::kHost,
                            buf.data(), nullptr),
      "upper latches released");
}

#endif  // NOFTL_LOCK_HIERARCHY_CHECKS

}  // namespace
}  // namespace noftl
