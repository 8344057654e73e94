// Buffer pool tests against a fake PageIo backend: hit/miss accounting,
// pin semantics, CLOCK eviction, dirty write-back, background flushers,
// and the all-pinned failure mode.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/rng.h"

namespace noftl::buffer {
namespace {

constexpr uint32_t kPageSize = 256;

/// In-memory tablespace double with configurable latency.
class FakeTablespace : public PageIo {
 public:
  explicit FakeTablespace(uint32_t id, SimTime read_us = 100,
                          SimTime write_us = 500)
      : id_(id), read_us_(read_us), write_us_(write_us) {}

  uint32_t tablespace_id() const override { return id_; }
  uint32_t page_size() const override { return kPageSize; }

  Status ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                     SimTime* complete, uint64_t read_seq = 0) override {
    (void)read_seq;  // the fake stores only the latest copy
    reads++;
    auto it = store_.find(page_no);
    if (it == store_.end()) return Status::NotFound("page never written");
    memcpy(data, it->second.data(), kPageSize);
    *complete = issue + read_us_;
    return Status::OK();
  }

  Status WritePageRaw(uint64_t page_no, SimTime issue, const char* data,
                      SimTime* complete) override {
    writes++;
    store_[page_no].assign(data, data + kPageSize);
    *complete = issue + write_us_;
    return Status::OK();
  }

  void Seed(uint64_t page_no, char fill) {
    store_[page_no] = std::vector<char>(kPageSize, fill);
  }
  char StoredFill(uint64_t page_no) { return store_.at(page_no)[0]; }
  bool Has(uint64_t page_no) const { return store_.count(page_no) != 0; }

  int reads = 0;
  int writes = 0;

 private:
  uint32_t id_;
  SimTime read_us_;
  SimTime write_us_;
  std::map<uint64_t, std::vector<char>> store_;
};

/// Reads of page p take 100 * p us, so the pages of one batch complete at
/// distinct times.
class StaggeredTablespace : public FakeTablespace {
 public:
  using FakeTablespace::FakeTablespace;

  Status ReadPageRaw(uint64_t page_no, SimTime issue, char* data,
                     SimTime* complete, uint64_t read_seq = 0) override {
    NOFTL_RETURN_IF_ERROR(
        FakeTablespace::ReadPageRaw(page_no, issue, data, complete, read_seq));
    *complete = issue + 100 * page_no;
    return Status::OK();
  }
};

BufferOptions SmallPool(uint32_t frames) {
  BufferOptions o;
  o.frame_count = frames;
  o.flush_high_water = 0.5;
  o.flush_batch = 4;
  return o;
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : pool_(SmallPool(4), kPageSize), ts_(1) {
    pool_.RegisterTablespace(&ts_);
  }

  BufferPool pool_;
  FakeTablespace ts_;
  txn::TxnContext ctx_;
};

TEST_F(BufferPoolTest, MissReadsThroughAndAdvancesClock) {
  ts_.Seed(7, 'z');
  const SimTime before = ctx_.now;
  auto h = pool_.FixPage(&ctx_, {1, 7}, /*create=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data[0], 'z');
  EXPECT_EQ(ctx_.now, before + 100);  // waited for the read
  EXPECT_EQ(ctx_.pages_read, 1u);
  pool_.Unfix(*h, false);
  EXPECT_EQ(pool_.stats().misses, 1u);
}

TEST_F(BufferPoolTest, HitCostsNoIo) {
  ts_.Seed(7, 'z');
  auto h1 = pool_.FixPage(&ctx_, {1, 7}, false);
  ASSERT_TRUE(h1.ok());
  pool_.Unfix(*h1, false);
  const SimTime before = ctx_.now;
  auto h2 = pool_.FixPage(&ctx_, {1, 7}, false);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(ctx_.now, before);  // no wait
  EXPECT_EQ(ts_.reads, 1);
  EXPECT_EQ(pool_.stats().hits, 1u);
  pool_.Unfix(*h2, false);
}

TEST_F(BufferPoolTest, CreateFormatsZeroedFrameWithoutRead) {
  auto h = pool_.FixPage(&ctx_, {1, 3}, /*create=*/true);
  ASSERT_TRUE(h.ok());
  for (uint32_t i = 0; i < kPageSize; i++) EXPECT_EQ(h->data[i], 0);
  EXPECT_EQ(ts_.reads, 0);
  pool_.Unfix(*h, true);
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  auto h = pool_.FixPage(&ctx_, {1, 0}, true);
  ASSERT_TRUE(h.ok());
  h->data[0] = 'd';
  pool_.Unfix(*h, /*dirty=*/true);

  // Fill the pool with other pages to force eviction of page 0.
  for (uint64_t p = 1; p <= 4; p++) {
    auto other = pool_.FixPage(&ctx_, {1, p}, true);
    ASSERT_TRUE(other.ok());
    pool_.Unfix(*other, true);
  }
  ASSERT_TRUE(ts_.Has(0));
  EXPECT_EQ(ts_.StoredFill(0), 'd');

  // Re-fix reads the written-back copy.
  auto h2 = pool_.FixPage(&ctx_, {1, 0}, false);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h2->data[0], 'd');
  pool_.Unfix(*h2, false);
}

TEST_F(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  std::vector<PageHandle> pinned;
  for (uint64_t p = 0; p < 4; p++) {
    auto h = pool_.FixPage(&ctx_, {1, p}, true);
    ASSERT_TRUE(h.ok());
    h->data[0] = static_cast<char>('A' + p);
    pinned.push_back(*h);
  }
  // Pool full of pins: next fix must fail Busy.
  auto overflow = pool_.FixPage(&ctx_, {1, 99}, true);
  EXPECT_TRUE(overflow.status().IsBusy());

  // Pinned contents untouched.
  for (uint64_t p = 0; p < 4; p++) {
    EXPECT_EQ(pinned[p].data[0], static_cast<char>('A' + p));
    pool_.Unfix(pinned[p], true);
  }
  auto ok_now = pool_.FixPage(&ctx_, {1, 99}, true);
  EXPECT_TRUE(ok_now.ok());
  pool_.Unfix(*ok_now, false);
}

TEST_F(BufferPoolTest, FlushAllWritesEveryDirtyPage) {
  for (uint64_t p = 0; p < 3; p++) {
    auto h = pool_.FixPage(&ctx_, {1, p}, true);
    ASSERT_TRUE(h.ok());
    h->data[0] = 'f';
    pool_.Unfix(*h, true);
  }
  EXPECT_EQ(pool_.dirty_count(), 3u);
  ASSERT_TRUE(pool_.FlushAll(&ctx_).ok());
  EXPECT_EQ(pool_.dirty_count(), 0u);
  for (uint64_t p = 0; p < 3; p++) EXPECT_TRUE(ts_.Has(p));
}

TEST_F(BufferPoolTest, DiscardDropsWithoutWriteback) {
  auto h = pool_.FixPage(&ctx_, {1, 5}, true);
  ASSERT_TRUE(h.ok());
  h->data[0] = 'x';
  pool_.Unfix(*h, true);
  pool_.Discard({1, 5});
  EXPECT_FALSE(ts_.Has(5));
  EXPECT_EQ(pool_.dirty_count(), 0u);
}

TEST_F(BufferPoolTest, UnregisteredTablespaceRejected) {
  auto h = pool_.FixPage(&ctx_, {42, 0}, false);
  EXPECT_TRUE(h.status().IsInvalidArgument());
}

TEST(PageKeyTest, BoundaryValuesDoNotAliasFrames) {
  // The old packed-uint64 key ((tablespace_id << 40) | page_no) bled
  // page_no bits >= 40 into the tablespace field and shifted tablespace
  // bits >= 24 out entirely, so distinct pages could silently share a
  // frame. The pool now keys on the full PageKey; these boundary pairs all
  // aliased under the old packing and must resolve to distinct frames.
  const PageKey a{8, 3};
  const PageKey b{7, (uint64_t{1} << 40) + 3};   // (7<<40)|(2^40+3) == (8<<40)|3
  const PageKey c{0, 5};
  const PageKey d{uint32_t{1} << 24, 5};         // tablespace bits >= 24 dropped
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(c == d);
  EXPECT_NE(PageKeyHash{}(a), PageKeyHash{}(b));
  EXPECT_NE(PageKeyHash{}(c), PageKeyHash{}(d));

  BufferPool pool(SmallPool(8), kPageSize);
  txn::TxnContext ctx;
  const std::vector<PageKey> keys = {a, b, c, d};
  for (size_t i = 0; i < keys.size(); i++) {
    auto h = pool.FixPage(&ctx, keys[i], /*create=*/true);
    ASSERT_TRUE(h.ok());
    h->data[0] = static_cast<char>('A' + i);
    pool.Unfix(*h, false);
  }
  // Re-fix each key: every lookup must hit its own frame with its own
  // content — under the aliasing bug, b would have hit a's frame (and d
  // c's), returning the wrong page.
  EXPECT_EQ(pool.stats().misses, 4u);
  for (size_t i = 0; i < keys.size(); i++) {
    auto h = pool.FixPage(&ctx, keys[i], /*create=*/false);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data[0], static_cast<char>('A' + i));
    pool.Unfix(*h, false);
  }
  EXPECT_EQ(pool.stats().hits, 4u);
}

TEST(BufferFlusherTest, BackgroundFlushKeepsDirtyFractionBounded) {
  BufferOptions options;
  options.frame_count = 16;
  options.flush_high_water = 0.25;  // flush beyond 4 dirty
  options.flush_batch = 8;
  BufferPool pool(options, kPageSize);
  FakeTablespace ts(1);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  for (uint64_t p = 0; p < 64; p++) {
    auto h = pool.FixPage(&ctx, {1, p}, true);
    ASSERT_TRUE(h.ok());
    h->data[0] = 'b';
    pool.Unfix(*h, true);
  }
  // Flushers ran in the background (no sync stalls needed).
  EXPECT_GT(pool.stats().background_flushes, 0u);
  EXPECT_LE(pool.dirty_count(), 8u);
  // The flusher writes did not advance the transaction clock beyond reads
  // (creates don't read, so the clock should be untouched).
  EXPECT_EQ(ctx.pages_read, 0u);
}

TEST(BufferClockTest, EvictionPrefersCleanFrames) {
  BufferOptions options;
  options.frame_count = 4;
  options.flush_high_water = 1.0;  // disable flushers for this test
  BufferPool pool(options, kPageSize);
  FakeTablespace ts(1);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  // Two dirty, two clean pages.
  for (uint64_t p = 0; p < 4; p++) {
    auto h = pool.FixPage(&ctx, {1, p}, true);
    ASSERT_TRUE(h.ok());
    pool.Unfix(*h, /*dirty=*/p < 2);
  }
  const uint64_t sync_before = pool.stats().sync_flushes;
  // Two more fixes: both should evict the clean frames, no sync write.
  for (uint64_t p = 10; p < 12; p++) {
    auto h = pool.FixPage(&ctx, {1, p}, true);
    ASSERT_TRUE(h.ok());
    pool.Unfix(*h, false);
  }
  EXPECT_EQ(pool.stats().sync_flushes, sync_before);
  EXPECT_EQ(pool.dirty_count(), 2u);
}

TEST(PageGuardTest, ReleasesOnScopeExit) {
  BufferPool pool(SmallPool(4), kPageSize);
  FakeTablespace ts(1);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;
  {
    auto h = pool.FixPage(&ctx, {1, 0}, true);
    ASSERT_TRUE(h.ok());
    PageGuard guard(&pool, *h);
    guard.data()[0] = 'g';
    guard.MarkDirty();
  }
  EXPECT_EQ(pool.dirty_count(), 1u);
  // Frame is unpinned: filling the pool with more dirty pages must succeed,
  // forcing page 0 out through a flush or dirty eviction.
  for (uint64_t p = 1; p <= 4; p++) {
    auto h = pool.FixPage(&ctx, {1, p}, true);
    ASSERT_TRUE(h.ok());
    pool.Unfix(*h, true);
  }
  ASSERT_TRUE(pool.FlushAll(&ctx).ok());
  EXPECT_TRUE(ts.Has(0));  // page 0 content reached the backend
}

TEST(FrameTableTest, InsertFindEraseWithBackwardShift) {
  FrameTable table(64);
  // Insert keys that collide heavily (same page_no, different tablespaces
  // and vice versa), then erase in an interleaved order: backward-shift
  // deletion must keep every survivor reachable.
  std::vector<PageKey> keys;
  for (uint32_t ts = 1; ts <= 8; ts++) {
    for (uint64_t p = 0; p < 8; p++) keys.push_back({ts, p});
  }
  for (uint32_t i = 0; i < keys.size(); i++) table.Insert(keys[i], i);
  ASSERT_TRUE(table.VerifyIntegrity().ok());
  for (uint32_t i = 0; i < keys.size(); i++) {
    ASSERT_EQ(table.Find(keys[i]), i);
  }
  for (uint32_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(table.Erase(keys[i]));
    EXPECT_FALSE(table.Erase(keys[i]));  // already gone
  }
  ASSERT_TRUE(table.VerifyIntegrity().ok());
  for (uint32_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(table.Find(keys[i]), i % 2 == 0 ? FrameTable::kNoFrame : i);
  }
}

TEST(FrameTableTest, PoolIntegrityHoldsUnderChurn) {
  // Hammer the pool with fixes, evictions, discards and flushes, verifying
  // the open-addressing table against the frames throughout.
  FakeTablespace ts(1);
  for (uint64_t p = 0; p < 128; p++) ts.Seed(p, static_cast<char>(p));
  BufferOptions options;
  options.frame_count = 16;
  BufferPool pool(options, kPageSize);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  Rng rng(99);
  for (int i = 0; i < 2000; i++) {
    const uint64_t p = rng.Below(128);
    const uint64_t action = rng.Below(10);
    if (action < 7) {
      auto h = pool.FixPage(&ctx, {1, p}, /*create=*/false);
      ASSERT_TRUE(h.ok());
      pool.Unfix(*h, /*dirty=*/rng.Bernoulli(0.3));
    } else if (action < 9) {
      std::vector<PageKey> keys;
      for (int k = 0; k < 4; k++) keys.push_back({1, rng.Below(128)});
      ASSERT_TRUE(pool.FetchPages(&ctx, keys).ok());
    } else {
      ASSERT_TRUE(pool.FlushAll(&ctx).ok());
      pool.Discard({1, p});
    }
    if (i % 100 == 0) {
      ASSERT_TRUE(pool.VerifyIntegrity().ok());
    }
  }
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
  ASSERT_TRUE(pool.FlushAll(&ctx).ok());
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Per-tablespace direct-mapped front cache (in front of the FrameTable).
// ---------------------------------------------------------------------------

TEST(FrontCacheTest, RepeatLookupsHitTheFrontCache) {
  FakeTablespace ts(1);
  ts.Seed(3, 'a');
  BufferPool pool(SmallPool(4), kPageSize);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  auto h = pool.FixPage(&ctx, {1, 3}, /*create=*/false);
  ASSERT_TRUE(h.ok());
  pool.Unfix(*h, false);
  const uint64_t front0 = pool.stats().front_hits;
  for (int i = 0; i < 10; i++) {
    auto again = pool.FixPage(&ctx, {1, 3}, /*create=*/false);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->data[0], 'a');
    pool.Unfix(*again, false);
  }
  // Every repeat fix short-circuited in the front cache; the FrameTable was
  // never probed again for this page.
  EXPECT_EQ(pool.stats().front_hits, front0 + 10);
  EXPECT_GE(pool.stats().front_probes, pool.stats().front_hits);
  EXPECT_EQ(ts.reads, 1);
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
}

TEST(FrontCacheTest, EvictionInvalidatesTheFrontEntry) {
  FakeTablespace ts(1);
  for (uint64_t p = 0; p < 8; p++) ts.Seed(p, static_cast<char>('a' + p));
  BufferPool pool(SmallPool(4), kPageSize);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  auto h = pool.FixPage(&ctx, {1, 0}, false);
  ASSERT_TRUE(h.ok());
  pool.Unfix(*h, false);
  // Push page 0 out of the 4-frame pool.
  for (uint64_t p = 1; p <= 4; p++) {
    for (int pass = 0; pass < 2; pass++) {
      auto g = pool.FixPage(&ctx, {1, p}, false);
      ASSERT_TRUE(g.ok());
      pool.Unfix(*g, false);
    }
  }
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
  const int reads_before = ts.reads;
  // Page 0 must MISS (a stale front entry would hand back the wrong frame).
  auto again = pool.FixPage(&ctx, {1, 0}, false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data[0], 'a');
  EXPECT_EQ(ts.reads, reads_before + 1);
  pool.Unfix(*again, false);
  pool.Discard({1, 0});
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
}

TEST(FrontCacheTest, SlotCollisionsResolveByFullKeyCompare) {
  FakeTablespace ts(1);
  // Pages 5 and 5 + slots collide in the direct-mapped cache (the slot
  // count is front_cache_slots rounded up to a power of two).
  BufferOptions options = SmallPool(8);
  options.front_cache_slots = 16;
  const uint64_t colliding = 5 + 16;
  ts.Seed(5, 'x');
  ts.Seed(colliding, 'y');
  BufferPool pool(options, kPageSize);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;

  for (int round = 0; round < 4; round++) {
    auto a = pool.FixPage(&ctx, {1, 5}, false);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->data[0], 'x');
    pool.Unfix(*a, false);
    auto b = pool.FixPage(&ctx, {1, colliding}, false);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b->data[0], 'y');
    pool.Unfix(*b, false);
    ASSERT_TRUE(pool.VerifyIntegrity().ok());
  }
  // Both pages stayed resident the whole time: 2 cold reads only.
  EXPECT_EQ(ts.reads, 2);
}

TEST(FrontCacheTest, DisabledFrontCacheStillWorks) {
  FakeTablespace ts(1);
  ts.Seed(1, 'z');
  BufferOptions options = SmallPool(4);
  options.front_cache_slots = 0;
  BufferPool pool(options, kPageSize);
  pool.RegisterTablespace(&ts);
  txn::TxnContext ctx;
  for (int i = 0; i < 5; i++) {
    auto h = pool.FixPage(&ctx, {1, 1}, false);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data[0], 'z');
    pool.Unfix(*h, false);
  }
  EXPECT_EQ(pool.stats().front_hits, 0u);
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
}

}  // namespace
}  // namespace noftl::buffer

namespace noftl::buffer {
namespace {

TEST(BufferFetchOwnerTest, ForeignToucherPaysItsPageAndOwnerPaysTheBatch) {
  BufferPool pool(SmallPool(8), kPageSize);
  StaggeredTablespace ts(1);
  pool.RegisterTablespace(&ts);
  for (uint64_t p = 1; p <= 4; p++) ts.Seed(p, static_cast<char>('a' + p));

  // The owner submits four reads at t=1000; they finish at 1100..1400.
  txn::TxnContext owner;
  owner.now = 1000;
  FetchTicket ticket = 0;
  const std::vector<PageKey> keys = {{1, 1}, {1, 2}, {1, 3}, {1, 4}};
  ASSERT_TRUE(pool.SubmitFetch(&owner, keys, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  EXPECT_EQ(owner.now, 1000u);

  // Another context touches page 2 while the fetch is in flight: it waits
  // for that page's 200 us read from its own clock, not for the owner's
  // batch completion.
  txn::TxnContext other;
  other.now = 50;
  auto h = pool.FixPage(&other, {1, 2}, /*create=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->data[0], 'c');
  pool.Unfix(*h, /*dirty=*/false);
  EXPECT_EQ(other.now, 250u);
  EXPECT_EQ(other.read_wait_us, 200u);
  EXPECT_EQ(other.pages_read, 0u);  // the owner's reads

  // The owner's reap still advances to the batch completion and counts the
  // reads, although the fetch was already delivered.
  ASSERT_TRUE(pool.WaitFetch(&owner, ticket).ok());
  EXPECT_EQ(owner.now, 1400u);
  EXPECT_EQ(owner.read_wait_us, 400u);
  EXPECT_EQ(owner.pages_read, 4u);
  // Reaped once: a second WaitFetch is a no-op.
  ASSERT_TRUE(pool.WaitFetch(&owner, ticket).ok());
  EXPECT_EQ(owner.now, 1400u);

  // The owner touching its own in-flight page reaps to the batch end.
  for (const PageKey& k : keys) pool.Discard(k);
  owner.now = 2000;
  ASSERT_TRUE(pool.SubmitFetch(&owner, keys, &ticket).ok());
  auto own = pool.FixPage(&owner, {1, 1}, /*create=*/false);
  ASSERT_TRUE(own.ok());
  pool.Unfix(*own, /*dirty=*/false);
  EXPECT_EQ(owner.now, 2400u);
  ASSERT_TRUE(pool.VerifyIntegrity().ok());
}

}  // namespace
}  // namespace noftl::buffer
