// B+-tree tests: point ops, splits across multiple levels, ordered and
// range scans, free-at-empty deletes (queue churn, cold first-key scans,
// draining to empty, snapshots over freed pages, frees racing a pending
// leaf fetch), the leaf split policy (leaf fill under ascending,
// interleaved-ascending, random and descending inserts), structural
// validation, and parameterized property tests against std::map for several
// insertion patterns.
//
// Fixtures that need a known tree shape build it from ascending inserts,
// which fill every leaf (LeafWidth keys each), and place probe keys by that
// width.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "db/database.h"
#include "index/btree.h"
#include "test_harness.h"

namespace noftl::index {
namespace {

using test::NativeStack;
using test::StackOptions;

StackOptions BigStack() {
  StackOptions o;
  o.blocks_per_die = 128;
  o.frames = 256;
  return o;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : stack_(BigStack()) {
    tree_.reset(*BTree::Create(/*object_id=*/3, "IDX", stack_.tablespace.get(),
                               stack_.pool.get(), &stack_.ctx));
  }

  NativeStack stack_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeLookupFails) {
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {1, 0}).status().IsNotFound());
  EXPECT_EQ(tree_->entry_count(), 0u);
  EXPECT_EQ(tree_->height(), 1u);
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

TEST_F(BTreeTest, InsertLookupRoundTrip) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 111).ok());
  auto v = tree_->Lookup(&stack_.ctx, {10, 0});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 111u);
  EXPECT_EQ(tree_->entry_count(), 1u);
}

TEST_F(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 1).ok());
  EXPECT_TRUE(tree_->Insert(&stack_.ctx, {10, 0}, 2).IsAlreadyExists());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 0}), 1u);
}

TEST_F(BTreeTest, LoKeyDisambiguatesDuplicateHi) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 1}, 1).ok());
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {10, 2}, 2).ok());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 1}), 1u);
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {10, 2}), 2u);
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  // 512B pages hold ~20 entries; 500 keys force multi-level splits.
  for (uint64_t k = 0; k < 500; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k * 10).ok()) << k;
  }
  EXPECT_GT(tree_->height(), 1u);
  EXPECT_EQ(tree_->entry_count(), 500u);
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  for (uint64_t k = 0; k < 500; k++) {
    auto v = tree_->Lookup(&stack_.ctx, {k, 0});
    ASSERT_TRUE(v.ok()) << k;
    EXPECT_EQ(*v, k * 10);
  }
}

TEST_F(BTreeTest, ScanFromIsOrderedAndComplete) {
  std::vector<uint64_t> keys;
  Rng rng(21);
  for (int i = 0; i < 300; i++) keys.push_back(rng.Below(1000000));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Insert in shuffled order.
  std::vector<uint64_t> shuffled = keys;
  for (size_t i = shuffled.size(); i > 1; i--) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  for (uint64_t k : shuffled) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }

  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(),
                              [&](Key128 k, uint64_t v) {
                                EXPECT_EQ(k.hi, v);
                                seen.push_back(k.hi);
                                return true;
                              }).ok());
  EXPECT_EQ(seen, keys);
}

TEST_F(BTreeTest, ScanFromMidpoint) {
  for (uint64_t k = 0; k < 100; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, {50, 0}, [&](Key128 k, uint64_t) {
                seen.push_back(k.hi);
                return true;
              }).ok());
  ASSERT_EQ(seen.size(), 50u);
  EXPECT_EQ(seen.front(), 50u);
  EXPECT_EQ(seen.back(), 99u);
}

TEST_F(BTreeTest, ScanRangeInclusiveBounds) {
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(tree_->ScanRange(&stack_.ctx, {10, 0}, {20, 0},
                               [&](Key128 k, uint64_t) {
                                 seen.push_back(k.hi);
                                 return true;
                               }).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{10, 12, 14, 16, 18, 20}));
}

TEST_F(BTreeTest, ScanEarlyStop) {
  for (uint64_t k = 0; k < 50; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  int count = 0;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(), [&](Key128, uint64_t) {
                count++;
                return count < 7;
              }).ok());
  EXPECT_EQ(count, 7);
}

TEST_F(BTreeTest, DeleteRemovesExactlyOneKey) {
  for (uint64_t k = 0; k < 200; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_TRUE(tree_->Delete(&stack_.ctx, {77, 0}).ok());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {77, 0}).status().IsNotFound());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {76, 0}).ok());
  EXPECT_TRUE(tree_->Lookup(&stack_.ctx, {78, 0}).ok());
  EXPECT_EQ(tree_->entry_count(), 199u);
  EXPECT_TRUE(tree_->Delete(&stack_.ctx, {77, 0}).IsNotFound());
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

TEST_F(BTreeTest, ReinsertAfterDelete) {
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {5, 5}, 1).ok());
  ASSERT_TRUE(tree_->Delete(&stack_.ctx, {5, 5}).ok());
  ASSERT_TRUE(tree_->Insert(&stack_.ctx, {5, 5}, 2).ok());
  EXPECT_EQ(*tree_->Lookup(&stack_.ctx, {5, 5}), 2u);
}

TEST_F(BTreeTest, DescendingInsertOrderWorks) {
  for (uint64_t k = 400; k > 0; k--) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok()) << k;
  }
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  uint64_t prev = 0;
  ASSERT_TRUE(tree_->ScanFrom(&stack_.ctx, Key128::Min(),
                              [&](Key128 k, uint64_t) {
                                EXPECT_GT(k.hi, prev);
                                prev = k.hi;
                                return true;
                              }).ok());
  EXPECT_EQ(prev, 400u);
}

TEST_F(BTreeTest, ValidateRejectsBadSeparatorsChainsAndEmptyLeaves) {
  for (uint64_t k = 0; k < 200; k++) {
    ASSERT_TRUE(tree_->Insert(&stack_.ctx, {k, 0}, k).ok());
  }
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());
  // Edit node bytes in place (flags at 2, count at 4, next leaf + 1 at 8,
  // entries of {key hi, key lo, value} from 32).
  const uint32_t ts = stack_.tablespace->tablespace_id();
  auto edit = [&](uint64_t page, const std::function<void(char*)>& fn) {
    auto h = stack_.pool->FixPage(&stack_.ctx, {ts, page}, /*create=*/false);
    ASSERT_TRUE(h.ok());
    fn(h->data);
    stack_.pool->Unfix(*h, /*dirty=*/true);
  };
  uint64_t leaf = ~0ull;
  uint64_t next = 0;
  for (uint64_t p = 0; leaf == ~0ull && p < stack_.tablespace->page_count();
       p++) {
    edit(p, [&](char* d) {
      if ((DecodeFixed16(d + 2) & 1) != 0 && DecodeFixed64(d + 8) != 0) {
        leaf = p;
        next = DecodeFixed64(d + 8);
      }
    });
  }
  ASSERT_NE(leaf, ~0ull);

  // The successor's first key moved just below its separator: the chain
  // stays in order and the count stays right, but descent would miss it.
  uint64_t first_hi = 0;
  edit(next - 1, [&](char* d) {
    first_hi = DecodeFixed64(d + 32);
    EncodeFixed64(d + 32, first_hi - 1);
    EncodeFixed64(d + 40, 5);
  });
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).IsCorruption());
  edit(next - 1, [&](char* d) {
    EncodeFixed64(d + 32, first_hi);
    EncodeFixed64(d + 40, 0);
  });
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());

  uint64_t skip = 0;
  edit(next - 1, [&](char* d) { skip = DecodeFixed64(d + 8); });
  edit(leaf, [&](char* d) { EncodeFixed64(d + 8, skip); });
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).IsCorruption());
  edit(leaf, [&](char* d) { EncodeFixed64(d + 8, next); });
  ASSERT_TRUE(tree_->Validate(&stack_.ctx).ok());

  uint16_t count = 0;
  edit(leaf, [&](char* d) {
    count = DecodeFixed16(d + 4);
    EncodeFixed16(d + 4, 0);
  });
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).IsCorruption());
  edit(leaf, [&](char* d) { EncodeFixed16(d + 4, count); });
  EXPECT_TRUE(tree_->Validate(&stack_.ctx).ok());
}

// --- Batched leaf probes (SubmitLeafFetch) ----------------------------

/// Eight dies on eight channels: cold leaves on distinct dies read in
/// parallel, so a batched probe costs about one read.
StackOptions WideStack(uint32_t frames) {
  StackOptions o;
  o.channels = 8;
  o.dies_per_channel = 1;
  o.region_dies = 8;
  o.blocks_per_die = 128;
  o.frames = frames;
  return o;
}

/// Write every page of the stack's tablespace back and drop it from the
/// pool, so the next access of any node reads flash.
void MakeCold(NativeStack* s) {
  ASSERT_TRUE(s->pool->FlushAll(&s->ctx).ok());
  for (uint64_t p = 0; p < s->tablespace->page_count(); p++) {
    s->pool->Discard({s->tablespace->tablespace_id(), p});
  }
}

/// Entries in a full leaf of `ts`: a 32-byte node header, 24-byte entries.
/// Ascending inserts fill every leaf, so leaf i holds keys
/// [i * width, (i + 1) * width).
uint64_t LeafWidth(const storage::Tablespace& ts) {
  return (ts.page_size() - 32) / 24;
}

TEST(BTreeLeafFetchTest, MatchesLookupAcrossLeavesAndForAbsentKeys) {
  NativeStack s(WideStack(/*frames=*/64));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "IDX", s.tablespace.get(), s.pool.get(), &s.ctx));
  for (uint64_t k = 0; k < 2000; k += 2) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k * 7).ok());
  }
  ASSERT_GE(tree->height(), 3u);
  MakeCold(&s);

  // Present and absent keys (odd ones were never inserted) spread over most
  // leaves, in no particular order, with a duplicate.
  std::vector<Key128> keys;
  Rng rng(5);
  for (int i = 0; i < 120; i++) keys.push_back({rng.Below(2100), 0});
  keys.push_back(keys.front());
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, keys, &ticket).ok());
  for (const Key128& key : keys) {
    auto got = tree->Lookup(&s.ctx, key);
    if (key.hi % 2 == 0 && key.hi < 2000) {
      ASSERT_TRUE(got.ok()) << key.hi;
      EXPECT_EQ(*got, key.hi * 7);
    } else {
      EXPECT_TRUE(got.status().IsNotFound()) << key.hi;
    }
  }
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, ticket).ok());
  ASSERT_TRUE(s.pool->VerifyIntegrity().ok());
  ASSERT_TRUE(tree->Validate(&s.ctx).ok());

  // No keys: nothing to submit.
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, {}, &ticket).ok());
  EXPECT_EQ(ticket, 0u);
}

TEST(BTreeLeafFetchTest, HeightOneTreeFetchesTheRoot) {
  NativeStack s(WideStack(/*frames=*/64));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "IDX", s.tablespace.get(), s.pool.get(), &s.ctx));
  for (uint64_t k = 1; k <= 5; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k + 100).ok());
  }
  ASSERT_EQ(tree->height(), 1u);
  MakeCold(&s);

  const std::vector<Key128> keys = {{3, 0}, {9, 0}, {1, 0}};
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, keys, &ticket).ok());
  EXPECT_NE(ticket, 0u);  // the cold root is the one leaf
  EXPECT_EQ(*tree->Lookup(&s.ctx, {3, 0}), 103u);
  EXPECT_TRUE(tree->Lookup(&s.ctx, {9, 0}).status().IsNotFound());
  EXPECT_EQ(*tree->Lookup(&s.ctx, {1, 0}), 101u);
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, ticket).ok());
  EXPECT_EQ(s.ctx.pages_read, 1u);
}

TEST(BTreeLeafFetchTest, ColdProbesWaitForOneReadNotOnePerKey) {
  NativeStack s(WideStack(/*frames=*/64));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "IDX", s.tablespace.get(), s.pool.get(), &s.ctx));
  // Ascending inserts fill fifteen leaves under the root.
  const uint64_t width = LeafWidth(*s.tablespace);
  const uint64_t n = 15 * width;
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k).ok());
  }
  ASSERT_EQ(tree->height(), 2u);
  MakeCold(&s);

  // A first probe makes the root resident; a second measures one read.
  ASSERT_TRUE(tree->Lookup(&s.ctx, {5, 0}).ok());
  SimTime before = s.ctx.now;
  ASSERT_TRUE(tree->Lookup(&s.ctx, {n - 5, 0}).ok());
  const SimTime one_read = s.ctx.now - before;
  ASSERT_GT(one_read, 0u);

  // k keys on k distinct cold leaves.
  constexpr uint64_t kProbes = 8;
  std::vector<Key128> keys;
  for (uint64_t i = 1; i <= kProbes; i++) keys.push_back({width * i + 5, 0});
  before = s.ctx.now;
  const uint64_t reads_before = s.ctx.pages_read;
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, keys, &ticket).ok());
  EXPECT_EQ(s.ctx.now, before);  // submitted, not waited for
  for (const Key128& key : keys) {
    ASSERT_EQ(*tree->Lookup(&s.ctx, key), key.hi);
  }
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, ticket).ok());
  const SimTime batched = s.ctx.now - before;
  EXPECT_EQ(s.ctx.pages_read - reads_before, kProbes);
  EXPECT_LE(batched, 2 * one_read);
  EXPECT_LT(batched * 3, kProbes * one_read);
}

TEST(BTreeLeafFetchTest, MoreLeavesThanHalfThePoolStayInBudget) {
  NativeStack s(WideStack(/*frames=*/16));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "IDX", s.tablespace.get(), s.pool.get(), &s.ctx));
  for (uint64_t k = 0; k < 600; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k + 1).ok());
  }
  MakeCold(&s);

  // Every key: far more distinct leaves than the 8-frame claim budget.
  std::vector<Key128> keys;
  for (uint64_t k = 0; k < 600; k++) keys.push_back({k, 0});
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, keys, &ticket).ok());
  // A second fetch stacked on the first still leaves frames to fix pages.
  buffer::FetchTicket second = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&s.ctx, {{10, 0}, {590, 0}}, &second).ok());
  for (uint64_t k = 0; k < 600; k += 37) {
    auto got = tree->Lookup(&s.ctx, {k, 0});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, k + 1);
  }
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, ticket).ok());
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, second).ok());
  ASSERT_TRUE(s.pool->VerifyIntegrity().ok());
  ASSERT_TRUE(tree->Validate(&s.ctx).ok());
}

TEST(BTreeLeafFetchTest, SnapshotContextFetchesVersionedFrames) {
  db::DatabaseOptions o;
  o.geometry.channels = 4;
  o.geometry.dies_per_channel = 4;
  o.geometry.planes_per_die = 1;
  o.geometry.blocks_per_die = 32;
  o.geometry.pages_per_block = 16;
  o.geometry.page_size = 512;
  o.buffer.frame_count = 128;
  o.default_extent_pages = 8;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecuteScript("CREATE REGION r (MAX_CHIPS=8);"
                                  "CREATE TABLESPACE ts (REGION=r);")
                  .ok());
  auto created = (*db)->CreateIndex("IDX", "ts");
  ASSERT_TRUE(created.ok());
  BTree* tree = *created;
  txn::TxnContext ctx;
  for (uint64_t k = 0; k < 300; k++) {
    ASSERT_TRUE(tree->Insert(&ctx, {k, 0}, k).ok());
  }
  auto snap = (*db)->OpenSnapshot(&ctx);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  // Rewrite every value after the snapshot and push the new leaves to flash.
  for (uint64_t k = 0; k < 300; k++) {
    ASSERT_TRUE(tree->Delete(&ctx, {k, 0}).ok());
    ASSERT_TRUE(tree->Insert(&ctx, {k, 0}, k + 1000).ok());
  }
  ASSERT_TRUE((*db)->buffer()->FlushAll(&ctx).ok());

  txn::TxnContext snap_ctx;
  snap_ctx.now = ctx.now;
  snap_ctx.snapshot_seq = *snap;
  std::vector<Key128> keys;
  for (uint64_t k = 0; k < 300; k += 10) keys.push_back({k, 0});
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&snap_ctx, keys, &ticket).ok());
  ASSERT_NE(ticket, 0u);  // the snapshot's leaf versions were never cached
  ASSERT_TRUE((*db)->buffer()->WaitFetch(&snap_ctx, ticket).ok());
  const uint64_t reads = snap_ctx.pages_read;
  for (const Key128& key : keys) {
    EXPECT_EQ(*tree->Lookup(&snap_ctx, key), key.hi);  // as of the snapshot
    EXPECT_EQ(*tree->Lookup(&ctx, key), key.hi + 1000);  // latest, unaliased
  }
  EXPECT_EQ(snap_ctx.pages_read, reads);  // every snapshot probe hit
  (*db)->ReleaseSnapshot(*snap);
}

// --- Free-at-empty deletes --------------------------------------------

/// Delivery/NewOrder in miniature: delete the minimum, insert a new maximum.
Status QueueStep(BTree* tree, txn::TxnContext* ctx, uint64_t* head,
                 uint64_t* tail) {
  NOFTL_RETURN_IF_ERROR(tree->Delete(ctx, {(*head)++, 0}));
  NOFTL_RETURN_IF_ERROR(tree->Insert(ctx, {*tail, 0}, *tail));
  (*tail)++;
  return Status::OK();
}

TEST(BTreeFreeAtEmptyTest, QueuePatternKeepsPagesBoundedByLiveEntries) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "Q", s.tablespace.get(), s.pool.get(), &s.ctx));
  uint64_t head = 0;
  uint64_t tail = 0;
  for (; tail < 200; tail++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {tail, 0}, tail).ok());
  }
  const uint64_t filled_pages = tree->page_count();
  ASSERT_GE(tree->height(), 2u);

  // 25x the live entries pass through the tree; lazy deletes would leave a
  // leaf behind for every ~10 of them.
  for (int step = 1; step <= 5000; step++) {
    ASSERT_TRUE(QueueStep(tree.get(), &s.ctx, &head, &tail).ok()) << step;
    ASSERT_LE(tree->page_count(), 2 * filled_pages) << step;
    if (step % 250 == 0) {
      Status v = tree->Validate(&s.ctx);
      ASSERT_TRUE(v.ok()) << step << ": " << v.ToString();
    }
  }
  EXPECT_EQ(tree->entry_count(), 200u);
  uint64_t expect = head;
  ASSERT_TRUE(tree->ScanFrom(&s.ctx, Key128::Min(), [&](Key128 k, uint64_t v) {
                EXPECT_EQ(k.hi, expect);
                EXPECT_EQ(v, expect);
                expect++;
                return true;
              }).ok());
  EXPECT_EQ(expect, tail);
  // Every freed page went back to the tablespace.
  EXPECT_EQ(s.tablespace->LivePages(), tree->page_count());
}

TEST(BTreeFreeAtEmptyTest, ColdFirstKeyScanReadsAtMostTwoLeaves) {
  NativeStack s(WideStack(/*frames=*/64));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "Q", s.tablespace.get(), s.pool.get(), &s.ctx));
  uint64_t head = 0;
  uint64_t tail = 0;
  for (; tail < 300; tail++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {tail, 0}, tail).ok());
  }
  for (int step = 0; step < 3000; step++) {
    ASSERT_TRUE(QueueStep(tree.get(), &s.ctx, &head, &tail).ok()) << step;
  }
  const uint64_t inner = tree->height() - 1;  // nodes above the leaf level

  // The chain walk from the first key's leaf.
  MakeCold(&s);
  tree->set_range_prefetch(false);
  uint64_t first = ~0ull;
  uint64_t reads = s.ctx.pages_read;
  ASSERT_TRUE(tree->ScanRange(&s.ctx, Key128::Min(), Key128::Max(),
                              [&](Key128 k, uint64_t) {
                                first = k.hi;
                                return false;
                              }).ok());
  EXPECT_EQ(first, head);
  EXPECT_LE(s.ctx.pages_read - reads, inner + 2);

  // Delivery's form: prefetch on, the range ends at the first live key.
  MakeCold(&s);
  tree->set_range_prefetch(true);
  first = ~0ull;
  reads = s.ctx.pages_read;
  ASSERT_TRUE(tree->ScanRange(&s.ctx, Key128::Min(), {head, 0},
                              [&](Key128 k, uint64_t) {
                                first = k.hi;
                                return false;
                              }).ok());
  EXPECT_EQ(first, head);
  EXPECT_LE(s.ctx.pages_read - reads, inner + 2);
}

TEST(BTreeFreeAtEmptyTest, HeavyDeletesDrainToEmptyAndRefill) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "H", s.tablespace.get(), s.pool.get(), &s.ctx));
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> shadow;
  Rng rng(77);

  auto check = [&](const char* phase) {
    Status v = tree->Validate(&s.ctx);
    ASSERT_TRUE(v.ok()) << phase << ": " << v.ToString();
    ASSERT_EQ(tree->entry_count(), shadow.size()) << phase;
    auto it = shadow.begin();
    ASSERT_TRUE(tree->ScanFrom(&s.ctx, Key128::Min(),
                               [&](Key128 k, uint64_t v) {
                                 EXPECT_TRUE(it != shadow.end()) << phase;
                                 if (it == shadow.end()) return false;
                                 EXPECT_EQ(k.hi, it->first.first) << phase;
                                 EXPECT_EQ(k.lo, it->first.second) << phase;
                                 EXPECT_EQ(v, it->second) << phase;
                                 ++it;
                                 return true;
                               }).ok());
    EXPECT_TRUE(it == shadow.end()) << phase;
  };
  auto insert_random = [&]() {
    const Key128 key{rng.Below(1u << 14), rng.Below(3)};
    const uint64_t value = rng.Next();
    Status st = tree->Insert(&s.ctx, key, value);
    if (shadow.count({key.hi, key.lo}) != 0) {
      ASSERT_TRUE(st.IsAlreadyExists());
    } else {
      ASSERT_TRUE(st.ok()) << st.ToString();
      shadow[{key.hi, key.lo}] = value;
    }
  };
  auto delete_random = [&]() {
    if (shadow.empty()) {
      ASSERT_TRUE(tree->Delete(&s.ctx, {1, 1}).IsNotFound());
      return;
    }
    auto it = shadow.begin();
    std::advance(it, rng.Below(shadow.size()));
    ASSERT_TRUE(tree->Delete(&s.ctx, {it->first.first, it->first.second}).ok());
    shadow.erase(it);
  };

  for (int round = 0; round < 2; round++) {
    SCOPED_TRACE(round);
    for (int i = 0; i < 3000; i++) ASSERT_NO_FATAL_FAILURE(insert_random());
    ASSERT_GE(tree->height(), 3u);
    check("filled");
    // Churn at a 60% delete ratio: the tree shrinks while it changes.
    for (int i = 0; i < 4000; i++) {
      if (rng.Below(10) < 6) {
        ASSERT_NO_FATAL_FAILURE(delete_random());
      } else {
        ASSERT_NO_FATAL_FAILURE(insert_random());
      }
      if (i % 500 == 0) {
        ASSERT_NO_FATAL_FAILURE(check("churn"));
      }
    }
    check("churned");
    // Drain: every leaf frees, the root collapses back to one empty leaf.
    while (!shadow.empty()) ASSERT_NO_FATAL_FAILURE(delete_random());
    check("drained");
    EXPECT_EQ(tree->height(), 1u);
    EXPECT_EQ(tree->page_count(), 1u);
    EXPECT_EQ(s.tablespace->LivePages(), 1u);
    EXPECT_TRUE(tree->Lookup(&s.ctx, {5, 0}).status().IsNotFound());
  }
  for (int i = 0; i < 500; i++) ASSERT_NO_FATAL_FAILURE(insert_random());
  check("refilled");
  for (const auto& [k, v] : shadow) {
    auto got = tree->Lookup(&s.ctx, {k.first, k.second});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
}

TEST(BTreeFreeAtEmptyTest, FreeingALeafClaimedByAPendingFetch) {
  NativeStack s(WideStack(/*frames=*/64));
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "Q", s.tablespace.get(), s.pool.get(), &s.ctx));
  // Ascending inserts fill eight leaves.
  const uint64_t width = LeafWidth(*s.tablespace);
  const uint64_t n = 8 * width;
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k).ok());
  }
  MakeCold(&s);

  // Another context submits a fetch of the first two leaves and has not
  // reaped it when the deleter empties (and frees) the first one.
  txn::TxnContext prober;
  prober.now = s.ctx.now;
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(tree->SubmitLeafFetch(&prober, {{0, 0}, {width + 5, 0}},
                                    &ticket).ok());
  ASSERT_NE(ticket, 0u);
  const uint64_t pages = tree->page_count();
  for (uint64_t k = 0; k < width; k++) {
    ASSERT_TRUE(tree->Delete(&s.ctx, {k, 0}).ok()) << k;
  }
  EXPECT_EQ(tree->page_count(), pages - 1);
  ASSERT_TRUE(s.pool->WaitFetch(&prober, ticket).ok());
  EXPECT_GT(prober.pages_read, 0u);  // the owner is still charged its reads
  EXPECT_TRUE(tree->Lookup(&prober, {5, 0}).status().IsNotFound());
  EXPECT_EQ(*tree->Lookup(&prober, {width + 5, 0}), width + 5);
  ASSERT_TRUE(s.pool->VerifyIntegrity().ok());
  ASSERT_TRUE(tree->Validate(&s.ctx).ok());

  // The freed page is reused by the next split: the last leaf is full.
  const uint64_t high_water = s.tablespace->page_count();
  for (uint64_t k = n; k < n + width / 2; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k).ok());
  }
  EXPECT_EQ(s.tablespace->page_count(), high_water);
  ASSERT_TRUE(tree->Validate(&s.ctx).ok());
}

TEST(BTreeFreeAtEmptyTest, SnapshotReadsLeavesFreedAndReusedAfterIt) {
  db::DatabaseOptions o;
  o.geometry.channels = 4;
  o.geometry.dies_per_channel = 4;
  o.geometry.planes_per_die = 1;
  o.geometry.blocks_per_die = 32;
  o.geometry.pages_per_block = 16;
  o.geometry.page_size = 512;
  o.buffer.frame_count = 128;
  o.default_extent_pages = 8;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecuteScript("CREATE REGION r (MAX_CHIPS=8);"
                                  "CREATE TABLESPACE ts (REGION=r);")
                  .ok());
  auto created = (*db)->CreateIndex("IDX", "ts");
  ASSERT_TRUE(created.ok());
  BTree* tree = *created;
  storage::Tablespace* ts = (*db)->GetTablespace("ts");
  txn::TxnContext ctx;
  // Ascending inserts: thirty full leaves under two inner nodes (11 and 19
  // leaves) and the root.
  const uint64_t width = LeafWidth(*ts);
  const uint64_t n = 30 * width;
  for (uint64_t k = 0; k < n; k++) {
    ASSERT_TRUE(tree->Insert(&ctx, {k, 0}, k).ok());
  }
  ASSERT_EQ(tree->height(), 3u);
  const uint32_t height = tree->height();
  auto snap = (*db)->OpenSnapshot(&ctx);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Free the first ten leaves (the first inner node keeps its eleventh),
  // then let new keys split into the freed pages; push everything to flash.
  const uint64_t pages = tree->page_count();
  for (uint64_t k = 0; k < 10 * width; k++) {
    ASSERT_TRUE(tree->Delete(&ctx, {k, 0}).ok());
  }
  ASSERT_LT(tree->page_count(), pages - 9);
  const uint64_t high_water = ts->page_count();
  for (uint64_t k = 1000; k < 1000 + 6 * width; k++) {
    ASSERT_TRUE(tree->Insert(&ctx, {k, 0}, k).ok());
  }
  ASSERT_EQ(ts->page_count(), high_water);  // every new node reused a page
  ASSERT_EQ(tree->height(), height);         // same root: snapshot descends it
  ASSERT_TRUE((*db)->buffer()->FlushAll(&ctx).ok());
  ASSERT_TRUE(tree->Validate(&ctx).ok());

  txn::TxnContext snap_ctx;
  snap_ctx.now = ctx.now;
  snap_ctx.snapshot_seq = *snap;
  uint64_t expect = 0;
  ASSERT_TRUE(tree->ScanFrom(&snap_ctx, Key128::Min(),
                             [&](Key128 k, uint64_t v) {
                               EXPECT_EQ(k.hi, expect);
                               EXPECT_EQ(v, expect);
                               expect++;
                               return true;
                             }).ok());
  EXPECT_EQ(expect, n);  // exactly the entries as of the snapshot
  EXPECT_EQ(*tree->Lookup(&snap_ctx, {5, 0}), 5u);
  EXPECT_TRUE(tree->Lookup(&snap_ctx, {1005, 0}).status().IsNotFound());
  EXPECT_TRUE(tree->Lookup(&ctx, {5, 0}).status().IsNotFound());
  EXPECT_EQ(*tree->Lookup(&ctx, {1005, 0}), 1005u);
  (*db)->ReleaseSnapshot(*snap);
}

// --- Leaf split policy ------------------------------------------------

/// Leaf fill of a valid tree: entries over the capacity of its leaves.
double LeafFill(BTree* tree, NativeStack* s) {
  uint64_t leaves = 0;
  Status v = tree->Validate(&s->ctx, &leaves);
  EXPECT_TRUE(v.ok()) << v.ToString();
  if (!v.ok() || leaves == 0) return 0;
  return static_cast<double>(tree->entry_count()) /
         static_cast<double>(leaves * LeafWidth(*s->tablespace));
}

TEST(BTreeSplitTest, AscendingInsertsFillEveryLeaf) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "A", s.tablespace.get(), s.pool.get(), &s.ctx));
  const uint64_t width = LeafWidth(*s.tablespace);
  constexpr uint64_t kKeys = 2000;
  for (uint64_t k = 0; k < kKeys; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k).ok());
  }
  uint64_t leaves = 0;
  ASSERT_TRUE(tree->Validate(&s.ctx, &leaves).ok());
  EXPECT_LE(leaves, (kKeys + width - 1) / width + 1);
}

TEST(BTreeSplitTest, InterleavedAscendingGroupsFillLeaves) {
  // NewOrder's pattern: ten districts, each appending to its own key range,
  // taking turns.
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "G", s.tablespace.get(), s.pool.get(), &s.ctx));
  for (uint64_t seq = 0; seq < 600; seq++) {
    for (uint64_t group = 0; group < 10; group++) {
      ASSERT_TRUE(tree->Insert(&s.ctx, {group, seq}, seq).ok());
    }
  }
  EXPECT_GE(LeafFill(tree.get(), &s), 0.90);
}

TEST(BTreeSplitTest, RandomInsertsKeepTheMiddleSplitFill) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "R", s.tablespace.get(), s.pool.get(), &s.ctx));
  Rng rng(11);
  for (int i = 0; i < 6000; i++) {
    const Key128 key{rng.Below(1u << 30), 0};
    Status st = tree->Insert(&s.ctx, key, key.hi);
    ASSERT_TRUE(st.ok() || st.IsAlreadyExists()) << st.ToString();
  }
  const double fill = LeafFill(tree.get(), &s);
  EXPECT_GE(fill, 0.60);
  EXPECT_LE(fill, 0.80);
}

TEST(BTreeSplitTest, DescendingInsertsSplitInTheMiddle) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "D", s.tablespace.get(), s.pool.get(), &s.ctx));
  for (uint64_t k = 2000; k > 0; k--) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {k, 0}, k).ok());
  }
  EXPECT_GE(LeafFill(tree.get(), &s), 0.45);
}

TEST(BTreeSplitTest, DeleteEndsTheRun) {
  NativeStack s(BigStack());
  std::unique_ptr<BTree> tree(
      *BTree::Create(3, "X", s.tablespace.get(), s.pool.get(), &s.ctx));
  const uint64_t width = LeafWidth(*s.tablespace);
  // A run fills the root leaf: its hint is `width`, just past the last key.
  for (uint64_t k = 0; k < width; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {2 * k, 0}, k).ok());
  }
  // A delete in the full leaf, and a re-insert that fills it again.
  ASSERT_TRUE(tree->Delete(&s.ctx, {2, 0}).ok());
  ASSERT_TRUE(tree->Insert(&s.ctx, {3, 0}, 3).ok());
  // The next key goes where the run would have continued; the leaf splits
  // in the middle, not at the insertion point.
  ASSERT_TRUE(tree->Insert(&s.ctx, {2 * width, 0}, width).ok());
  ASSERT_EQ(tree->height(), 2u);
  uint64_t leaves = 0;
  ASSERT_TRUE(tree->Validate(&s.ctx, &leaves).ok());
  ASSERT_EQ(leaves, 2u);
  // The left half has room: filling its gaps splits nothing.
  const uint64_t pages = tree->page_count();
  for (uint64_t k = 0; k < width / 2 - 1; k++) {
    ASSERT_TRUE(tree->Insert(&s.ctx, {2 * k, 1}, k).ok());
  }
  EXPECT_EQ(tree->page_count(), pages);
  EXPECT_TRUE(tree->Validate(&s.ctx).ok());
}

// --- Parameterized property tests -------------------------------------

enum class Pattern { kRandom, kAscending, kDescending, kClustered };

struct BTreeParam {
  Pattern pattern;
  int keys;
  const char* name;
};

class BTreePropertyTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreePropertyTest, MatchesStdMapUnderMixedOps) {
  const BTreeParam param = GetParam();
  NativeStack stack(BigStack());
  std::unique_ptr<BTree> tree(*BTree::Create(1, "P", stack.tablespace.get(),
                                             stack.pool.get(), &stack.ctx));
  Rng rng(static_cast<uint64_t>(param.keys) * 1000 +
          static_cast<uint64_t>(param.pattern));
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> shadow;

  auto make_key = [&](int i) -> Key128 {
    switch (param.pattern) {
      case Pattern::kRandom:
        return {rng.Below(1u << 20), rng.Below(4)};
      case Pattern::kAscending:
        return {static_cast<uint64_t>(i), 0};
      case Pattern::kDescending:
        return {static_cast<uint64_t>(param.keys - i), 0};
      case Pattern::kClustered:
        return {rng.Below(64), rng.Below(1u << 16)};
    }
    return {0, 0};
  };

  for (int i = 0; i < param.keys; i++) {
    const Key128 key = make_key(i);
    const uint64_t value = rng.Next();
    Status s = tree->Insert(&stack.ctx, key, value);
    const bool existed = shadow.count({key.hi, key.lo}) != 0;
    if (existed) {
      ASSERT_TRUE(s.IsAlreadyExists());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
      shadow[{key.hi, key.lo}] = value;
    }
    // Sporadic deletes keep the tree churning.
    if (i % 7 == 3 && !shadow.empty()) {
      auto it = shadow.begin();
      std::advance(it, rng.Below(shadow.size()));
      ASSERT_TRUE(
          tree->Delete(&stack.ctx, {it->first.first, it->first.second}).ok());
      shadow.erase(it);
    }
  }

  ASSERT_EQ(tree->entry_count(), shadow.size());
  ASSERT_TRUE(tree->Validate(&stack.ctx).ok());

  // Every shadow entry is found with the right value.
  for (const auto& [k, v] : shadow) {
    auto got = tree->Lookup(&stack.ctx, {k.first, k.second});
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, v);
  }
  // Full scan yields exactly the shadow, in order.
  auto it = shadow.begin();
  uint64_t scanned = 0;
  ASSERT_TRUE(tree->ScanFrom(&stack.ctx, Key128::Min(),
                             [&](Key128 k, uint64_t v) {
                               EXPECT_EQ(k.hi, it->first.first);
                               EXPECT_EQ(k.lo, it->first.second);
                               EXPECT_EQ(v, it->second);
                               ++it;
                               scanned++;
                               return true;
                             }).ok());
  EXPECT_EQ(scanned, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BTreePropertyTest,
    ::testing::Values(BTreeParam{Pattern::kRandom, 800, "random"},
                      BTreeParam{Pattern::kAscending, 800, "ascending"},
                      BTreeParam{Pattern::kDescending, 800, "descending"},
                      BTreeParam{Pattern::kClustered, 800, "clustered"},
                      BTreeParam{Pattern::kRandom, 3000, "random_large"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace noftl::index
