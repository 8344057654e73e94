// Multi-threaded stress tests for the concurrent storage stack: several OS
// threads driving one mapper/region stack, one ShardedSpace (every slot of
// every scattered batch delivered under concurrent submit/wait), one
// BufferPool (concurrent fix/unfix/fetch with eviction and
// write-back), and the threaded TPC-C driver (digest-equal to the
// deterministic single-thread run). These are the suites the TSan CI job
// leans on; keep every cross-thread access either synchronized by the stack
// under test or confined to thread-owned data. A B-tree suite runs
// free-at-empty deletes against concurrent scans and in-flight leaf fetches.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "flash/device.h"
#include "index/btree.h"
#include "noftl/region_manager.h"
#include "shard/sharded_space.h"
#include "storage/space_provider.h"
#include "test_harness.h"
#include "tpcc/driver.h"
#include "tpcc/tpcc_db.h"

namespace noftl {
namespace {

using flash::FlashDevice;
using flash::FlashGeometry;
using flash::FlashTiming;
using shard::ShardedSpace;
using shard::ShardPlacement;
using storage::IoBatch;
using storage::IoRequest;
using storage::IoTicket;

constexpr uint32_t kPageSize = 512;

FlashGeometry SmallGeo(uint32_t blocks_per_die = 64) {
  FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = blocks_per_die;
  geo.pages_per_block = 16;
  geo.page_size = kPageSize;
  return geo;
}

/// One full native stack (device -> region -> mapper) behind a RegionSpace.
struct ShardStack {
  explicit ShardStack(const FlashGeometry& geo) {
    device = std::make_unique<FlashDevice>(geo, FlashTiming{});
    manager = std::make_unique<region::RegionManager>(device.get());
    region::RegionOptions ro;
    ro.name = "rg";
    ro.max_chips = geo.total_dies();
    rg = *manager->CreateRegion(ro);
    space = std::make_unique<storage::RegionSpace>(rg);
  }

  std::unique_ptr<FlashDevice> device;
  std::unique_ptr<region::RegionManager> manager;
  region::Region* rg = nullptr;
  std::unique_ptr<storage::RegionSpace> space;
};

/// N independent shard stacks behind one ShardedSpace.
struct ShardedStack {
  ShardedStack(size_t n, ShardPlacement placement,
               const FlashGeometry& geo = SmallGeo()) {
    std::vector<storage::SpaceProvider*> providers;
    for (size_t s = 0; s < n; s++) {
      shards.push_back(std::make_unique<ShardStack>(geo));
      providers.push_back(shards.back()->space.get());
    }
    space = std::make_unique<ShardedSpace>(providers, placement);
  }

  std::vector<std::unique_ptr<ShardStack>> shards;
  std::unique_ptr<ShardedSpace> space;
};

void FillPattern(uint64_t tag, char* buf) {
  for (uint32_t i = 0; i < kPageSize; i++) {
    buf[i] = static_cast<char>((tag * 131 + i * 29) & 0xFF);
  }
}

bool MatchesPattern(uint64_t tag, const char* buf) {
  std::vector<char> expect(kPageSize);
  FillPattern(tag, expect.data());
  return memcmp(buf, expect.data(), kPageSize) == 0;
}

// ---------------------------------------------------------------------------
// One mapper, many writers: disjoint lpn ranges, overwrites driving GC.
// ---------------------------------------------------------------------------

TEST(ThreadsMapperTest, ConcurrentWritersOverOneRegionStack) {
  const int kThreads = 4;
  const int kRounds = 24;
  const uint64_t kExtentPages = 32;

  ShardStack stack(SmallGeo());
  // Pre-allocate one extent per thread; each thread owns its lpns outright.
  std::vector<uint64_t> base(kThreads);
  for (int t = 0; t < kThreads; t++) {
    auto b = stack.space->AllocateExtent(kExtentPages);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    base[t] = *b;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      SimTime now = 0;
      std::vector<std::vector<char>> bufs(kExtentPages,
                                          std::vector<char>(kPageSize));
      std::vector<char> read_buf(kPageSize);
      for (int round = 0; round < kRounds; round++) {
        IoBatch writes;
        for (uint64_t p = 0; p < kExtentPages; p++) {
          const uint64_t tag = t * 1000003ull + round * kExtentPages + p;
          FillPattern(tag, bufs[p].data());
          writes.AddWrite(base[t] + p, bufs[p].data(), 1);
        }
        SimTime done = now;
        if (!stack.space->RunBatch(&writes, now, &done).ok() ||
            !writes.FirstError().ok()) {
          failures++;
          return;
        }
        now = done;
        // Read a few pages back and verify this round's pattern.
        for (uint64_t p = 0; p < kExtentPages; p += 7) {
          const uint64_t tag = t * 1000003ull + round * kExtentPages + p;
          if (!stack.space->ReadPage(base[t] + p, now, read_buf.data(), &now)
                   .ok() ||
              !MatchesPattern(tag, read_buf.data())) {
            failures++;
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_TRUE(stack.rg->mapper().VerifyIntegrity().ok());
  // Final contents: every page holds its last round's pattern.
  std::vector<char> buf(kPageSize);
  SimTime now = 0;
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t p = 0; p < kExtentPages; p++) {
      const uint64_t tag = t * 1000003ull + (kRounds - 1) * kExtentPages + p;
      ASSERT_TRUE(stack.space->ReadPage(base[t] + p, now, buf.data(), &now)
                      .ok());
      EXPECT_TRUE(MatchesPattern(tag, buf.data()))
          << "thread " << t << " page " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// One ShardedSpace, concurrent submit + wait: every slot of every scattered
// batch delivered, and every page reads back what its last write stored.
// ---------------------------------------------------------------------------

TEST(ThreadsShardTest, ConcurrentScatterBatchesDeliverEverySlot) {
  const int kThreads = 4;
  const int kRounds = 16;
  const uint64_t kBatch = 16;
  const uint64_t kExtentPages = 32;

  ShardedStack sharded(4, ShardPlacement::kStripe);
  ShardedSpace* space = sharded.space.get();

  // Striped extents: each thread's batch scatters over all four shards.
  std::vector<std::vector<uint64_t>> bases(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int e = 0; e < 4; e++) {
      auto b = space->AllocateExtent(kExtentPages);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      bases[t].push_back(*b);
    }
  }

  // Per thread: the tag last written to each of its lpns (thread-owned).
  std::vector<std::map<uint64_t, uint64_t>> last_tag(kThreads);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      SimTime now = 0;
      std::vector<std::vector<char>> bufs(kBatch,
                                          std::vector<char>(kPageSize));
      for (int round = 0; round < kRounds; round++) {
        // Mid-run allocations exercise the allocator under contention.
        if (round == kRounds / 2) {
          auto b = space->AllocateExtent(kExtentPages);
          if (!b.ok()) {
            failures++;
            return;
          }
          bases[t].push_back(*b);
        }
        // Odd rounds read back what earlier rounds wrote; even rounds write.
        const bool reading = round % 2 == 1;
        std::vector<uint64_t> expect(kBatch);
        IoBatch batch;
        for (uint64_t i = 0; i < kBatch; i++) {
          if (reading) {
            auto it = last_tag[t].begin();
            std::advance(it, rng.Below(last_tag[t].size()));
            expect[i] = it->second;
            batch.AddRead(it->first, bufs[i].data());
            continue;
          }
          const uint64_t ext = rng.Below(bases[t].size());
          const uint64_t lpn = bases[t][ext] + rng.Below(kExtentPages);
          const uint64_t tag =
              (static_cast<uint64_t>(t) * kRounds + round) * kBatch + i;
          FillPattern(tag, bufs[i].data());
          batch.AddWrite(lpn, bufs[i].data(), 1);
          last_tag[t][lpn] = tag;
        }
        IoTicket ticket = 0;
        if (!space->SubmitBatch(&batch, now, &ticket).ok() ||
            !space->WaitBatch(ticket, &now).ok() || !batch.AllDone() ||
            !batch.FirstError().ok()) {
          failures++;
          return;
        }
        for (uint64_t i = 0; reading && i < kBatch; i++) {
          if (!MatchesPattern(expect[i], bufs[i].data())) failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(space->PendingBatches(), 0u);
  EXPECT_GT(space->stats().merged_batches, 0u);
  for (auto& shard : sharded.shards) {
    EXPECT_TRUE(shard->rg->mapper().VerifyIntegrity().ok());
  }
  // Final contents: every written page holds its last pattern.
  std::vector<char> buf(kPageSize);
  SimTime now = 0;
  for (int t = 0; t < kThreads; t++) {
    for (const auto& [lpn, tag] : last_tag[t]) {
      ASSERT_TRUE(space->ReadPage(lpn, now, buf.data(), &now).ok());
      EXPECT_TRUE(MatchesPattern(tag, buf.data()))
          << "thread " << t << " lpn " << lpn;
    }
  }
}

// ---------------------------------------------------------------------------
// BufferPool: concurrent fix/unfix/fetch with eviction and write-back.
// ---------------------------------------------------------------------------

TEST(ThreadsBufferTest, ConcurrentFixUnfixFetchWithEviction) {
  const int kThreads = 4;
  const int kPagesPerThread = 24;  // 96 pages over 64 frames: real eviction
  const int kRounds = 40;

  test::NativeStack stack;
  const uint32_t ts_id = stack.tablespace->tablespace_id();

  // Pre-create every page single-threaded (page 0 of each thread's slice
  // carries tag == first stamp so the verify below is uniform).
  std::vector<std::vector<uint64_t>> pages(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int p = 0; p < kPagesPerThread; p++) {
      auto page_no = stack.tablespace->AllocatePage(1);
      ASSERT_TRUE(page_no.ok()) << page_no.status().ToString();
      auto h = stack.pool->FixPage(&stack.ctx, {ts_id, *page_no},
                                   /*create=*/true);
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      FillPattern(t * 1000ull + p, h->data);
      stack.pool->Unfix(*h, /*dirty=*/true);
      pages[t].push_back(*page_no);
    }
  }

  // Each thread re-reads, verifies and re-stamps ONLY its own pages; the
  // contention is in the pool itself (shared latch, clock hand, write-back,
  // batched fetches), not the payload bytes.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      txn::TxnContext ctx;
      Rng rng(13 + t);
      std::vector<uint64_t> stamp(kPagesPerThread);
      for (int p = 0; p < kPagesPerThread; p++) stamp[p] = t * 1000ull + p;
      for (int round = 0; round < kRounds; round++) {
        // Occasionally batch-fetch a chunk of this thread's pages.
        if (round % 8 == 3) {
          std::vector<buffer::PageKey> keys;
          for (int p = 0; p < kPagesPerThread; p += 3) {
            keys.push_back({ts_id, pages[t][p]});
          }
          if (!stack.pool->FetchPages(&ctx, keys).ok()) {
            failures++;
            return;
          }
        }
        const int p = static_cast<int>(rng.Below(kPagesPerThread));
        auto h = stack.pool->FixPage(&ctx, {ts_id, pages[t][p]},
                                     /*create=*/false);
        if (!h.ok()) {
          failures++;
          return;
        }
        if (!MatchesPattern(stamp[p], h->data)) {
          failures++;
          stack.pool->Unfix(*h, false);
          return;
        }
        const bool rewrite = round % 2 == 0;
        if (rewrite) {
          stamp[p] = t * 1000ull + p + (round + 1) * 100000ull;
          FillPattern(stamp[p], h->data);
        }
        stack.pool->Unfix(*h, /*dirty=*/rewrite);
      }
      // Leave the final stamps where the main thread can verify them.
      for (int p = 0; p < kPagesPerThread; p++) {
        auto h = stack.pool->FixPage(&ctx, {ts_id, pages[t][p]}, false);
        if (!h.ok() || !MatchesPattern(stamp[p], h->data)) {
          failures++;
          if (h.ok()) stack.pool->Unfix(*h, false);
          return;
        }
        stack.pool->Unfix(*h, false);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_TRUE(stack.pool->VerifyIntegrity().ok());
  EXPECT_TRUE(stack.pool->FlushAll(&stack.ctx).ok());
  EXPECT_TRUE(stack.pool->VerifyIntegrity().ok());
  const auto& stats = stack.pool->stats();
  EXPECT_GT(static_cast<uint64_t>(stats.evictions), 0u);
  EXPECT_GT(static_cast<uint64_t>(stats.hits), 0u);
  EXPECT_TRUE(stack.rg->mapper().VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// One B-tree under concurrent free-at-empty deletes, scans and leaf fetches.
// ---------------------------------------------------------------------------

TEST(ThreadsBTreeTest, QueueDeletesFreeLeavesUnderConcurrentProbes) {
  // Each deleter owns one key group and runs it as a queue (Delivery takes
  // the oldest, NewOrder appends), so leaves empty and are freed all the
  // time. Probers submit leaf fetches over every group and reap them late:
  // deleters free leaves those in-flight fetches have claimed.
  constexpr uint64_t kQueues = 3;
  constexpr uint64_t kLive = 120;
  constexpr int kSteps = 200;
  constexpr int kProbers = 2;
  test::StackOptions so;
  so.blocks_per_die = 128;
  so.frames = 64;
  test::NativeStack stack(so);
  std::unique_ptr<index::BTree> tree(*index::BTree::Create(
      7, "Q", stack.tablespace.get(), stack.pool.get(), &stack.ctx));
  for (uint64_t q = 0; q < kQueues; q++) {
    for (uint64_t i = 0; i < kLive; i++) {
      ASSERT_TRUE(tree->Insert(&stack.ctx, {q, i}, i).ok());
    }
  }
  const uint64_t filled_pages = tree->page_count();

  std::atomic<int> failures{0};
  std::atomic<int> deleters_left{static_cast<int>(kQueues)};
  std::vector<std::thread> threads;
  for (uint64_t q = 0; q < kQueues; q++) {
    threads.emplace_back([&, q] {
      txn::TxnContext ctx;
      ctx.now = stack.ctx.now;
      uint64_t head = 0;
      uint64_t tail = kLive;
      for (int step = 0; step < kSteps && failures == 0; step++) {
        uint64_t oldest = ~0ull;
        Status s = tree->ScanRange(&ctx, {q, 0}, {q, ~0ull},
                                   [&](index::Key128 k, uint64_t) {
                                     oldest = k.lo;
                                     return false;
                                   });
        if (!s.ok() || oldest != head ||
            !tree->Delete(&ctx, {q, head}).ok() ||
            !tree->Insert(&ctx, {q, tail}, tail).ok()) {
          failures++;
          break;
        }
        head++;
        tail++;
      }
      deleters_left--;
    });
  }
  for (int p = 0; p < kProbers; p++) {
    threads.emplace_back([&, p] {
      txn::TxnContext ctx;
      ctx.now = stack.ctx.now;
      Rng rng(31 + p);
      while (deleters_left > 0 && failures == 0) {
        std::vector<index::Key128> keys;
        for (int i = 0; i < 6; i++) {
          keys.push_back({rng.Below(kQueues), rng.Below(kSteps + kLive)});
        }
        buffer::FetchTicket ticket = 0;
        if (!tree->SubmitLeafFetch(&ctx, keys, &ticket).ok()) {
          failures++;
          break;
        }
        // Reap late: yield so deleters run while the claims are in flight.
        std::this_thread::yield();
        auto got = tree->Lookup(&ctx, keys.front());
        if (got.ok() ? *got != keys.front().lo : !got.status().IsNotFound()) {
          failures++;
        }
        if (!stack.pool->WaitFetch(&ctx, ticket).ok()) failures++;
        // A scan of one group sees it in key order.
        const uint64_t q = rng.Below(kQueues);
        uint64_t prev = 0;
        bool first = true;
        Status s = tree->ScanRange(&ctx, {q, 0}, {q, ~0ull},
                                   [&](index::Key128 k, uint64_t) {
                                     if (k.hi != q ||
                                         (!first && k.lo <= prev)) {
                                       failures++;
                                     }
                                     prev = k.lo;
                                     first = false;
                                     return true;
                                   });
        if (!s.ok()) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures, 0);
  EXPECT_EQ(tree->entry_count(), kQueues * kLive);
  EXPECT_LE(tree->page_count(), 2 * filled_pages);
  Status v = tree->Validate(&stack.ctx);
  EXPECT_TRUE(v.ok()) << v.ToString();
  EXPECT_TRUE(stack.pool->VerifyIntegrity().ok());
  EXPECT_EQ(stack.tablespace->LivePages(), tree->page_count());
  EXPECT_TRUE(stack.rg->mapper().VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Threaded TPC-C driver: same committed work as the deterministic run.
// ---------------------------------------------------------------------------

tpcc::TpccDbOptions SmallTpcc() {
  db::DatabaseOptions dbo;
  dbo.geometry.channels = 4;
  dbo.geometry.dies_per_channel = 4;
  dbo.geometry.planes_per_die = 1;
  dbo.geometry.blocks_per_die = 64;
  dbo.geometry.pages_per_block = 16;
  dbo.geometry.page_size = 2048;
  dbo.buffer.frame_count = 96;
  dbo.backend = db::Backend::kNoFtl;
  dbo.default_extent_pages = 8;
  tpcc::TpccDbOptions o;
  o.db = dbo;
  o.scale = tpcc::TpccScale::Small();
  o.extent_pages = 8;
  o.placement = tpcc::TraditionalPlacement(dbo.geometry.total_dies());
  return o;
}

/// Interleaving-invariant logical digest: row counts and integer counters
/// only (timestamps track simulated I/O completion and legitimately differ
/// between the event-ordered and the threaded schedule).
struct TpccDigest {
  uint64_t orders = 0;
  uint64_t order_lines = 0;
  uint64_t new_orders = 0;
  uint64_t history_rows = 0;
  uint64_t delivered_orders = 0;
  uint64_t sum_next_o_id = 0;
  uint64_t sum_payment_cnt = 0;

  bool operator==(const TpccDigest&) const = default;
};

TpccDigest DigestTpcc(tpcc::TpccDb* db) {
  TpccDigest d;
  txn::TxnContext ctx;
  ctx.now = db->load_end_time();
  d.orders = db->order->record_count();
  d.order_lines = db->order_line->record_count();
  d.new_orders = db->new_order->record_count();
  d.history_rows = db->history->record_count();
  EXPECT_TRUE(db->district
                  ->Scan(&ctx,
                         [&](storage::RecordId, Slice row) {
                           tpcc::DistrictRow dr;
                           memcpy(&dr, row.data(), sizeof(dr));
                           d.sum_next_o_id +=
                               static_cast<uint64_t>(dr.next_o_id);
                           return true;
                         })
                  .ok());
  EXPECT_TRUE(db->customer
                  ->Scan(&ctx,
                         [&](storage::RecordId, Slice row) {
                           tpcc::CustomerRow cr;
                           memcpy(&cr, row.data(), sizeof(cr));
                           d.sum_payment_cnt +=
                               static_cast<uint64_t>(cr.payment_cnt);
                           return true;
                         })
                  .ok());
  EXPECT_TRUE(db->order
                  ->Scan(&ctx,
                         [&](storage::RecordId, Slice row) {
                           tpcc::OrderRow orow;
                           memcpy(&orow, row.data(), sizeof(orow));
                           if (orow.carrier_id != 0) d.delivered_orders++;
                           return true;
                         })
                  .ok());
  return d;
}

tpcc::DriverOptions ThreadedDriverOptions(uint32_t workers) {
  tpcc::DriverOptions o;
  o.terminals = 4;
  o.max_transactions = 400;
  o.warmup_transactions = 100;
  o.seed = 11;
  o.worker_threads = workers;
  return o;
}

TEST(ThreadsTpccTest, ThreadedRunCommitsTheDeterministicWork) {
  for (bool snapshot_stocklevel : {false, true}) {
    SCOPED_TRACE(snapshot_stocklevel);
    auto options = [&](uint32_t workers) {
      tpcc::DriverOptions o = ThreadedDriverOptions(workers);
      o.snapshot_stocklevel = snapshot_stocklevel;
      return o;
    };
    auto deterministic = tpcc::TpccDb::CreateAndLoad(SmallTpcc());
    ASSERT_TRUE(deterministic.ok()) << deterministic.status().ToString();
    tpcc::TpccDriver d0(deterministic->get(), options(0));
    auto r0 = d0.Run();
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    const TpccDigest base = DigestTpcc(deterministic->get());

    auto threaded = tpcc::TpccDb::CreateAndLoad(SmallTpcc());
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    tpcc::TpccDriver d3(threaded->get(), options(3));
    auto r3 = d3.Run();
    ASSERT_TRUE(r3.ok()) << r3.status().ToString();

    // Same per-terminal decks and quotas: the committed logical work is
    // identical, whatever the OS scheduler did.
    EXPECT_EQ(r3->transactions, r0->transactions);
    EXPECT_EQ(r3->rollbacks, r0->rollbacks);
    EXPECT_EQ(DigestTpcc(threaded->get()), base);

    // Both drivers run Stock-Level on snapshots exactly when asked to.
    EXPECT_EQ(r0->response_snapshot_us.count() > 0, snapshot_stocklevel);
    EXPECT_EQ(r3->response_snapshot_us.count() > 0, snapshot_stocklevel);

    // Wall-clock metrics only exist in threaded mode.
    EXPECT_EQ(r0->wall_elapsed_us, 0u);
    EXPECT_GT(r3->wall_elapsed_us, 0u);
    EXPECT_GT(r3->wall_tps, 0.0);

    for (auto* rg : threaded->get()->database()->regions()->regions()) {
      EXPECT_TRUE(rg->mapper().VerifyIntegrity().ok()) << rg->name();
    }
  }
}

TEST(ThreadsTpccTest, BoundedLagRunsCommitTheDeterministicWork) {
  auto options = [](uint32_t workers) {
    tpcc::DriverOptions o = ThreadedDriverOptions(workers);
    o.terminals = 8;
    o.warmup_transactions = 96;  // whole per-terminal warmup quotas
    return o;
  };
  auto deterministic = tpcc::TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(deterministic.ok()) << deterministic.status().ToString();
  tpcc::TpccDriver d0(deterministic->get(), options(0));
  auto r0 = d0.Run();
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  const TpccDigest base = DigestTpcc(deterministic->get());
  EXPECT_EQ(r0->max_start_lead_us, 0u);

  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(workers);
    auto threaded = tpcc::TpccDb::CreateAndLoad(SmallTpcc());
    ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
    tpcc::TpccDriver driver(threaded->get(), options(workers));
    auto r = driver.Run();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->transactions, r0->transactions);
    EXPECT_EQ(r->rollbacks, r0->rollbacks);
    EXPECT_EQ(DigestTpcc(threaded->get()), base);
    // No transaction started more than the window ahead of the slowest
    // active worker.
    EXPECT_LE(r->max_start_lead_us, tpcc::kThreadedLagWindowUs);
  }
}

TEST(ThreadsTpccTest, MoreWorkersThanTerminalsIsFine) {
  auto db = tpcc::TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok());
  tpcc::DriverOptions o = ThreadedDriverOptions(16);  // terminals = 4
  o.max_transactions = 120;
  o.warmup_transactions = 0;
  tpcc::TpccDriver driver(db->get(), o);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->transactions + report->rollbacks, 120u);
}

}  // namespace
}  // namespace noftl
