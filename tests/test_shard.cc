// Sharded multi-device backend tests: 1-shard ShardedSpace equivalence to
// the unsharded stack (same MapperStats, same physical placement/tie-break
// order), N-shard scatter/merge semantics (retire at max-over-shards,
// same-shard FIFO preserved, one merged ticket per batch), placement policies
// (extent striping, by-key pinning, spill on full shards), cross-shard
// atomic rejection, per-shard crash recovery, and the sharded Database
// facade end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "shard/shard_router.h"
#include "shard/sharded_space.h"
#include "storage/space_provider.h"

namespace noftl::shard {
namespace {

using flash::FlashDevice;
using flash::FlashGeometry;
using flash::FlashTiming;
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

/// One shard's full native stack, built by hand so tests can reach into the
/// mapper (tie-break order, stats, recovery).
struct ShardStack {
  explicit ShardStack(const FlashGeometry& geo,
                      const ftl::MapperOptions& mapper = {}) {
    device = std::make_unique<FlashDevice>(geo, FlashTiming{});
    manager = std::make_unique<region::RegionManager>(device.get());
    region::RegionOptions ro;
    ro.name = "rg";
    ro.max_chips = geo.total_dies();
    ro.mapper = mapper;
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
               const FlashGeometry& geo = SmallGeo(),
               const ftl::MapperOptions& mapper = {}) {
    std::vector<storage::SpaceProvider*> providers;
    for (size_t s = 0; s < n; s++) {
      shards.push_back(std::make_unique<ShardStack>(geo, mapper));
      providers.push_back(shards.back()->space.get());
    }
    space = std::make_unique<ShardedSpace>(providers, placement);
  }

  region::Region* rg(size_t s) { return shards[s]->rg; }

  std::vector<std::unique_ptr<ShardStack>> shards;
  std::unique_ptr<ShardedSpace> space;
};

std::vector<char> PagePattern(uint64_t tag) {
  std::vector<char> data(kPageSize);
  for (uint32_t i = 0; i < kPageSize; i++) {
    data[i] = static_cast<char>((tag * 131 + i) & 0xFF);
  }
  return data;
}

void ExpectMapperStatsEqual(const ftl::MapperStats& a,
                            const ftl::MapperStats& b) {
  EXPECT_EQ(a.host_reads, b.host_reads);
  EXPECT_EQ(a.host_writes, b.host_writes);
  EXPECT_EQ(a.gc_runs, b.gc_runs);
  EXPECT_EQ(a.gc_copybacks, b.gc_copybacks);
  EXPECT_EQ(a.gc_erases, b.gc_erases);
  EXPECT_EQ(a.wl_migrated_pages, b.wl_migrated_pages);
  EXPECT_EQ(a.victim_picks, b.victim_picks);
  EXPECT_EQ(a.victim_scan_steps, b.victim_scan_steps);
  EXPECT_EQ(a.gc_meta_lookups, b.gc_meta_lookups);
}

// ---------------------------------------------------------------------------
// 1-shard equivalence: a ShardedSpace over one backend is the backend.
// ---------------------------------------------------------------------------

TEST(ShardEquivalenceTest, OneShardIsByteIdenticalToUnshardedStack) {
  const FlashGeometry geo = SmallGeo();
  ShardStack plain(geo);
  ShardedStack sharded(1, ShardPlacement::kStripe, geo);

  storage::SpaceProvider* a = plain.space.get();
  storage::SpaceProvider* b = sharded.space.get();

  // Identical schedule on both providers: extent allocations, clock-chained
  // writes (enough overwrites to run GC), interleaved reads, trims, and
  // mixed batches.
  Rng rng(7);
  const uint64_t extent_pages = 16;
  std::vector<uint64_t> base_a, base_b;
  for (int e = 0; e < 12; e++) {
    auto ea = a->AllocateExtentHinted(extent_pages, e);
    auto eb = b->AllocateExtentHinted(extent_pages, e);
    ASSERT_TRUE(ea.ok());
    ASSERT_TRUE(eb.ok());
    // Shard 0 encodes to the identity, so even the returned extent numbers
    // match the unsharded allocator exactly.
    EXPECT_EQ(*ea, *eb);
    base_a.push_back(*ea);
    base_b.push_back(*eb);
  }
  const uint64_t pages = base_a.size() * extent_pages;

  SimTime ta = 0, tb = 0;
  for (int round = 0; round < 2000; round++) {
    const uint64_t p = rng.Below(pages);
    const uint64_t e = p / extent_pages, off = p % extent_pages;
    const std::vector<char> data = PagePattern(round);
    SimTime done_a = ta, done_b = tb;
    ASSERT_TRUE(a->WritePage(base_a[e] + off, ta, data.data(), 5, &done_a).ok());
    ASSERT_TRUE(b->WritePage(base_b[e] + off, tb, data.data(), 5, &done_b).ok());
    EXPECT_EQ(done_a, done_b);
    ta = done_a;
    tb = done_b;
    if (round % 7 == 0) {
      std::vector<char> ra(kPageSize), rb(kPageSize);
      ASSERT_TRUE(a->ReadPage(base_a[e] + off, ta, ra.data(), &done_a).ok());
      ASSERT_TRUE(b->ReadPage(base_b[e] + off, tb, rb.data(), &done_b).ok());
      EXPECT_EQ(done_a, done_b);
      EXPECT_EQ(0, memcmp(ra.data(), rb.data(), kPageSize));
      ta = done_a;
      tb = done_b;
    }
    if (round % 97 == 0) {
      ASSERT_TRUE(a->TrimPage(base_a[e] + off).ok());
      ASSERT_TRUE(b->TrimPage(base_b[e] + off).ok());
    }
  }

  // One batched submission through each, same mixed requests.
  std::vector<std::vector<char>> bufs_a(8, std::vector<char>(kPageSize));
  std::vector<std::vector<char>> bufs_b(8, std::vector<char>(kPageSize));
  std::vector<char> w = PagePattern(4242);
  IoBatch batch_a, batch_b;
  for (int i = 0; i < 8; i++) {
    batch_a.AddWrite(base_a[0] + i, w.data(), 5);
    batch_b.AddWrite(base_b[0] + i, w.data(), 5);
  }
  SimTime done_a = ta, done_b = tb;
  ASSERT_TRUE(a->RunBatch(&batch_a, ta, &done_a).ok());
  ASSERT_TRUE(b->RunBatch(&batch_b, tb, &done_b).ok());
  EXPECT_EQ(done_a, done_b);
  // Every operation took the passthrough (shard-0 identity) path; nothing
  // was ever scattered.
  EXPECT_EQ(sharded.space->stats().merged_batches, 0u);
  EXPECT_GT(sharded.space->stats().passthrough_batches, 0u);

  // Same MapperStats, same physical placement (tie-break order) page by
  // page, and a clean integrity check on both.
  ExpectMapperStatsEqual(plain.rg->stats(), sharded.rg(0)->stats());
  for (uint64_t p = 0; p < pages; p++) {
    const uint64_t lpn_a = base_a[p / extent_pages] + p % extent_pages;
    const uint64_t lpn_b = base_b[p / extent_pages] + p % extent_pages;
    ASSERT_EQ(plain.rg->IsMapped(lpn_a),
              sharded.rg(0)->IsMapped(ShardedSpace::LocalOf(lpn_b)));
    if (!plain.rg->IsMapped(lpn_a)) continue;
    auto pa = plain.rg->mapper().Lookup(lpn_a);
    auto pb = sharded.rg(0)->mapper().Lookup(ShardedSpace::LocalOf(lpn_b));
    ASSERT_TRUE(pa.ok());
    ASSERT_TRUE(pb.ok());
    EXPECT_EQ(pa->die, pb->die);
    EXPECT_EQ(pa->block, pb->block);
    EXPECT_EQ(pa->page, pb->page);
  }
  EXPECT_TRUE(plain.rg->VerifyIntegrity().ok());
  EXPECT_TRUE(sharded.rg(0)->VerifyIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Scatter/merge semantics.
// ---------------------------------------------------------------------------

TEST(ShardScatterTest, MergedBatchRetiresAtMaxOverShards) {
  ShardedStack stack(4, ShardPlacement::kByKey);
  // One extent pinned per shard; one page written in each.
  std::vector<uint64_t> base(4);
  std::vector<char> w = PagePattern(1);
  for (uint64_t s = 0; s < 4; s++) {
    auto e = stack.space->AllocateExtentHinted(16, s);
    ASSERT_TRUE(e.ok());
    ASSERT_EQ(ShardedSpace::ShardOf(*e), s);
    base[s] = *e;
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(
          stack.space->WritePage(base[s] + i, 0, w.data(), 1, nullptr).ok());
    }
  }

  // Scatter: unequal per-shard loads — shard 0 gets 6 reads, the rest 1.
  SimTime issue = 1000000;  // past the populate backlog on every shard
  std::vector<std::vector<char>> bufs(9, std::vector<char>(kPageSize));
  IoBatch batch;
  for (int i = 0; i < 6; i++) batch.AddRead(base[0] + i, bufs[i].data());
  for (uint64_t s = 1; s < 4; s++) {
    batch.AddRead(base[s], bufs[5 + s].data());
  }
  const uint64_t merged_before = stack.space->stats().merged_batches;
  IoTicket ticket = 0;
  ASSERT_TRUE(stack.space->SubmitBatch(&batch, issue, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  EXPECT_EQ(stack.space->PendingBatches(), 1u);
  SimTime done = 0;
  ASSERT_TRUE(stack.space->WaitBatch(ticket, &done).ok());
  ASSERT_TRUE(batch.FirstError().ok());
  EXPECT_TRUE(batch.AllDone());

  // The merged batch finishes exactly at the max over the per-request
  // completions — the slow shard (0) decides, the fast shards overlap.
  SimTime max_slot = 0;
  std::map<size_t, SimTime> per_shard_max;
  for (const IoRequest& r : batch.requests()) {
    max_slot = std::max(max_slot, r.complete);
    auto& m = per_shard_max[ShardedSpace::ShardOf(r.lpn)];
    m = std::max(m, r.complete);
  }
  EXPECT_EQ(done, max_slot);
  EXPECT_EQ(done, per_shard_max[0]);  // the loaded shard is the critical path
  for (uint64_t s = 1; s < 4; s++) {
    EXPECT_LT(per_shard_max[s], per_shard_max[0]);
  }
  EXPECT_EQ(stack.space->PendingBatches(), 0u);
  EXPECT_EQ(stack.space->stats().merged_batches, merged_before + 1);

  // Same-shard FIFO: shard 0's six requests hit 4 dies; each die services
  // its queue in submission order, so completions within the shard are
  // non-decreasing per die and the first four (one per die) strictly precede
  // the queued fifth and sixth.
  std::vector<SimTime> shard0;
  for (const IoRequest& r : batch.requests()) {
    if (ShardedSpace::ShardOf(r.lpn) == 0) shard0.push_back(r.complete);
  }
  ASSERT_EQ(shard0.size(), 6u);
  EXPECT_GE(shard0[4], shard0[0]);
  EXPECT_GE(shard0[5], shard0[1]);
}

TEST(ShardScatterTest, SameShardSameDieRequestsRetireFifo) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  auto e = stack.space->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(ShardedSpace::ShardOf(*e), 1u);
  std::vector<char> w = PagePattern(9);
  ASSERT_TRUE(stack.space->WritePage(*e, 0, w.data(), 1, nullptr).ok());

  // Five reads of ONE page (one die) on shard 1, merged with one read on
  // shard 0's... nothing: the point is per-die FIFO inside a scattered
  // sub-batch, so add a shard-0 extent too to force the scatter path.
  auto e0 = stack.space->AllocateExtentHinted(16, 0);
  ASSERT_TRUE(e0.ok());
  ASSERT_TRUE(stack.space->WritePage(*e0, 0, w.data(), 1, nullptr).ok());

  SimTime issue = 1000000;
  std::vector<std::vector<char>> bufs(6, std::vector<char>(kPageSize));
  IoBatch batch;
  for (int i = 0; i < 5; i++) batch.AddRead(*e, bufs[i].data());
  batch.AddRead(*e0, bufs[5].data());
  SimTime done = 0;
  ASSERT_TRUE(stack.space->RunBatch(&batch, issue, &done).ok());
  ASSERT_TRUE(batch.FirstError().ok());
  for (int i = 1; i < 5; i++) {
    EXPECT_GT(batch[i].complete, batch[i - 1].complete)
        << "same-die requests must retire in submission order";
  }
}

TEST(ShardScatterTest, WaitBatchFillsEveryParentSlotInSubmissionOrder) {
  // Interleave three shards' requests (reads, writes and a trim) in one
  // batch: every parent slot must come back from its own mirror, whatever
  // order the shards are reaped in.
  ShardedStack stack(3, ShardPlacement::kByKey);
  std::vector<uint64_t> base(3);
  for (uint64_t s = 0; s < 3; s++) {
    auto e = stack.space->AllocateExtentHinted(16, s);
    ASSERT_TRUE(e.ok());
    ASSERT_EQ(ShardedSpace::ShardOf(*e), s);
    base[s] = *e;
    for (uint64_t p = 0; p < 4; p++) {
      const std::vector<char> w = PagePattern(s * 10 + p);
      ASSERT_TRUE(
          stack.space->WritePage(base[s] + p, 0, w.data(), 1, nullptr).ok());
    }
  }

  const SimTime issue = 1000000;
  const uint64_t merged_before = stack.space->stats().merged_batches;
  std::vector<std::vector<char>> bufs(5, std::vector<char>(kPageSize));
  const std::vector<char> w2 = PagePattern(99);
  IoBatch batch;
  batch.AddRead(base[2] + 1, bufs[0].data());
  batch.AddRead(base[0] + 3, bufs[1].data());
  batch.AddWrite(base[1] + 5, w2.data(), 1);
  batch.AddRead(base[1] + 0, bufs[2].data());
  batch.AddTrim(base[0] + 2);
  batch.AddRead(base[2] + 2, bufs[3].data());
  batch.AddRead(base[0] + 7, bufs[4].data());  // never written: NotFound
  IoTicket ticket = 0;
  ASSERT_TRUE(stack.space->SubmitBatch(&batch, issue, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  EXPECT_EQ(stack.space->PendingBatches(), 1u);
  EXPECT_EQ(stack.space->stats().merged_batches, merged_before + 1);
  for (const IoRequest& r : batch.requests()) EXPECT_FALSE(r.done);

  SimTime done = 0;
  ASSERT_TRUE(stack.space->WaitBatch(ticket, &done).ok());
  EXPECT_TRUE(batch.AllDone());
  EXPECT_EQ(stack.space->PendingBatches(), 0u);
  for (size_t i = 0; i + 1 < batch.size(); i++) {
    EXPECT_TRUE(batch[i].status.ok()) << i << ": " << batch[i].status.ToString();
    EXPECT_GE(batch[i].complete, issue) << i;
    EXPECT_LE(batch[i].complete, done) << i;
  }
  EXPECT_TRUE(batch[6].status.IsNotFound()) << batch[6].status.ToString();
  EXPECT_EQ(done, batch.MaxComplete());
  const std::vector<std::pair<size_t, uint64_t>> reads = {
      {0, 21}, {1, 3}, {2, 10}, {3, 22}};
  for (const auto& [buf, tag] : reads) {
    EXPECT_EQ(0, memcmp(bufs[buf].data(), PagePattern(tag).data(), kPageSize))
        << "read slot " << buf;
  }
  // The write and the trim reached their shards.
  EXPECT_TRUE(stack.rg(1)->IsMapped(ShardedSpace::LocalOf(base[1] + 5)));
  EXPECT_FALSE(stack.rg(0)->IsMapped(ShardedSpace::LocalOf(base[0] + 2)));
  // Reaping the ticket again is a harmless no-op.
  SimTime again = 7;
  EXPECT_TRUE(stack.space->WaitBatch(ticket, &again).ok());
  EXPECT_EQ(again, 7u);
}

// ---------------------------------------------------------------------------
// Atomic batches across shards.
// ---------------------------------------------------------------------------

TEST(ShardAtomicTest, CrossShardAtomicIsCleanlyRejected) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  auto e0 = stack.space->AllocateExtentHinted(16, 0);
  auto e1 = stack.space->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(e0.ok());
  ASSERT_TRUE(e1.ok());
  ASSERT_NE(ShardedSpace::ShardOf(*e0), ShardedSpace::ShardOf(*e1));

  std::vector<char> w = PagePattern(77);
  IoBatch batch;
  batch.AddWrite(*e0, w.data(), 4);
  batch.AddWrite(*e1, w.data(), 4);
  batch.set_atomic(true);
  IoTicket ticket = 0;
  Status s = stack.space->SubmitBatch(&batch, 0, &ticket);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(ticket, 0u);  // rejected submissions yield no ticket
  EXPECT_TRUE(batch.AllDone());
  for (const IoRequest& r : batch.requests()) {
    EXPECT_TRUE(r.status.IsInvalidArgument());
  }
  EXPECT_EQ(stack.space->PendingBatches(), 0u);
  EXPECT_EQ(stack.space->stats().rejected_cross_shard_atomics, 1u);
  // Nothing became visible on either shard.
  EXPECT_FALSE(stack.rg(0)->IsMapped(ShardedSpace::LocalOf(*e0)));
  EXPECT_FALSE(stack.rg(1)->IsMapped(ShardedSpace::LocalOf(*e1)));
}

TEST(ShardAtomicTest, SingleShardAtomicCommitsOnItsShard) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  auto e1 = stack.space->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(e1.ok());
  ASSERT_EQ(ShardedSpace::ShardOf(*e1), 1u);

  std::vector<char> w0 = PagePattern(10), w1 = PagePattern(11);
  IoBatch batch;
  batch.AddWrite(*e1, w0.data(), 4);
  batch.AddWrite(*e1 + 1, w1.data(), 4);
  batch.set_atomic(true);
  SimTime done = 0;
  ASSERT_TRUE(stack.space->RunBatch(&batch, 0, &done).ok());
  ASSERT_TRUE(batch.FirstError().ok());
  EXPECT_TRUE(batch.AllDone());

  std::vector<char> r0(kPageSize), r1(kPageSize);
  ASSERT_TRUE(
      stack.space->ReadPage(*e1, done, r0.data(), nullptr).ok());
  ASSERT_TRUE(
      stack.space->ReadPage(*e1 + 1, done, r1.data(), nullptr).ok());
  EXPECT_EQ(0, memcmp(r0.data(), w0.data(), kPageSize));
  EXPECT_EQ(0, memcmp(r1.data(), w1.data(), kPageSize));
  EXPECT_EQ(stack.rg(1)->mapper().committed_batches(), 1u);
  EXPECT_EQ(stack.rg(0)->mapper().committed_batches(), 0u);
}

// ---------------------------------------------------------------------------
// Placement policies.
// ---------------------------------------------------------------------------

TEST(ShardPlacementTest, StripeRoundRobinsExtentsAcrossShards) {
  ShardedStack stack(4, ShardPlacement::kStripe);
  for (int e = 0; e < 12; e++) {
    auto ext = stack.space->AllocateExtent(16);
    ASSERT_TRUE(ext.ok());
    EXPECT_EQ(ShardedSpace::ShardOf(*ext), static_cast<size_t>(e % 4));
  }
  const auto& stats = stack.space->stats();
  for (uint64_t s = 0; s < 4; s++) {
    EXPECT_EQ(stats.extents_per_shard[s], 3u);
  }
}

TEST(ShardPlacementTest, ByKeyPinsAndHintOverridesObjectId) {
  ShardedStack stack(4, ShardPlacement::kByKey);
  // Default key = the hint (the allocating object id on the tablespace
  // path): same key -> same shard.
  for (int e = 0; e < 3; e++) {
    auto ext = stack.space->AllocateExtentHinted(16, 7);
    ASSERT_TRUE(ext.ok());
    EXPECT_EQ(ShardedSpace::ShardOf(*ext), 7u % 4);
  }
  // An explicit override (e.g. the TPC-C warehouse id) wins over the
  // object-id hint.
  stack.space->SetPlacementHint(2);
  auto ext = stack.space->AllocateExtentHinted(16, 7);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ShardedSpace::ShardOf(*ext), 2u);
  stack.space->ClearPlacementHint();
  ext = stack.space->AllocateExtentHinted(16, 7);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ShardedSpace::ShardOf(*ext), 3u);
}

TEST(ShardPlacementTest, FullShardSpillsToTheNextOne) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  const uint64_t per_shard = stack.rg(0)->logical_pages();
  // Pin everything to shard 0 until it is exhausted...
  uint64_t allocated = 0;
  while (allocated + 16 <= per_shard) {
    auto ext = stack.space->AllocateExtentHinted(16, 0);
    ASSERT_TRUE(ext.ok());
    ASSERT_EQ(ShardedSpace::ShardOf(*ext), 0u);
    allocated += 16;
  }
  // ...then the next extent spills to shard 1 instead of failing.
  auto ext = stack.space->AllocateExtentHinted(16, 0);
  ASSERT_TRUE(ext.ok());
  EXPECT_EQ(ShardedSpace::ShardOf(*ext), 1u);
  EXPECT_GE(stack.space->stats().extent_spills, 1u);
}

// ---------------------------------------------------------------------------
// Per-shard crash recovery.
// ---------------------------------------------------------------------------

TEST(ShardRecoveryTest, EveryShardRecoversItsLogicalContentsIndependently) {
  ftl::MapperOptions mapper;
  mapper.checkpoint_slots = 2;
  const FlashGeometry geo = SmallGeo();
  ShardedStack stack(2, ShardPlacement::kStripe, geo, mapper);

  // Write a striped data set, checkpoint, then keep writing so recovery has
  // both a checkpoint to load and a delta to scan.
  std::vector<uint64_t> lpns;
  std::map<uint64_t, std::vector<char>> expected;
  SimTime t = 0;
  for (int e = 0; e < 8; e++) {
    auto ext = stack.space->AllocateExtent(16);
    ASSERT_TRUE(ext.ok());
    for (int i = 0; i < 16; i++) lpns.push_back(*ext + i);
  }
  Rng rng(13);
  for (int round = 0; round < 600; round++) {
    const uint64_t lpn = lpns[rng.Below(lpns.size())];
    std::vector<char> data = PagePattern(round);
    SimTime done = t;
    ASSERT_TRUE(stack.space->WritePage(lpn, t, data.data(), 3, &done).ok());
    expected[lpn] = std::move(data);
    t = done;
    if (round == 300) {
      for (auto& shard : stack.shards) {
        SimTime ck = t;
        ASSERT_TRUE(shard->rg->mapper().WriteCheckpoint(t, &ck).ok());
        t = std::max(t, ck);
      }
    }
  }

  // Crash: rebuild each shard's translation from its device alone, all
  // issued at the same instant (shards are independent devices, so the
  // fleet recovers in the max over shards).
  std::vector<ShardRouter::ShardRecoveryInput> inputs;
  for (auto& shard : stack.shards) {
    ShardRouter::ShardRecoveryInput in;
    in.device = shard->device.get();
    in.dies = shard->rg->dies();
    in.logical_pages = shard->rg->logical_pages();
    in.options = mapper;
    inputs.push_back(in);
  }
  SimTime rec_done = t;
  auto recovered = ShardRouter::RecoverShardMappers(inputs, t, &rec_done);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_GT(rec_done, t);

  // Both shards came back from their checkpoint + delta scan, and every
  // logical page reads back byte-identical through the recovered mappers.
  for (const auto& m : *recovered) {
    EXPECT_TRUE(m->VerifyIntegrity().ok());
    EXPECT_GT(m->stats().recovery_ckpt_epoch, 0u);
  }
  for (const auto& [lpn, data] : expected) {
    const size_t s = ShardedSpace::ShardOf(lpn);
    std::vector<char> buf(kPageSize);
    ASSERT_TRUE((*recovered)[s]
                    ->Read(ShardedSpace::LocalOf(lpn), rec_done,
                           flash::OpOrigin::kHost, buf.data(), nullptr)
                    .ok());
    EXPECT_EQ(0, memcmp(buf.data(), data.data(), kPageSize))
        << "lpn " << lpn << " diverged after per-shard recovery";
  }
}

// ---------------------------------------------------------------------------
// Faults across shards: isolation, merged error slots, graceful degradation.
// ---------------------------------------------------------------------------

TEST(ShardFaultTest, FaultsOnOneShardLeaveOthersByteIdentical) {
  // Identical pinned workload twice; run B injects transient read faults
  // into shard 1's device only. Shard 0 must be byte-identical to the
  // fault-free run — placement, stats and payloads — and shard 1's reads
  // must all still succeed through the mapper's retry path.
  ftl::MapperOptions mopts;
  mopts.read_retry_attempts = 8;
  auto run = [&](bool fault_shard1) {
    ShardedStack stack(2, ShardPlacement::kByKey, SmallGeo(), mopts);
    std::vector<uint64_t> base(2);
    for (uint64_t s = 0; s < 2; s++) {
      auto e = stack.space->AllocateExtentHinted(32, s);
      EXPECT_TRUE(e.ok());
      EXPECT_EQ(ShardedSpace::ShardOf(*e), s);
      base[s] = *e;
    }
    SimTime t = 0;
    for (int round = 0; round < 400; round++) {
      const uint64_t s = round % 2;
      const uint64_t lpn = base[s] + ((round / 2) % 32);
      const std::vector<char> data = PagePattern(round);
      SimTime done = t;
      EXPECT_TRUE(
          stack.space->WritePage(lpn, t, data.data(), 1, &done).ok());
      t = done;
    }
    if (fault_shard1) {
      flash::FaultOptions faults;
      faults.read_transient_rate = 0.3;
      faults.seed = 77;
      stack.shards[1]->device->SetFaults(faults);
    }
    // Verify shard 0 first (fault-free in both runs), then shard 1.
    std::string digest;
    std::vector<char> buf(kPageSize);
    for (uint64_t s = 0; s < 2; s++) {
      for (uint64_t i = 0; i < 32; i++) {
        const uint64_t lpn = base[s] + i;
        EXPECT_TRUE(
            stack.space->ReadPage(lpn, t, buf.data(), nullptr).ok())
            << "shard " << s << " lpn " << lpn;
        if (s != 0) continue;
        auto pa = stack.rg(0)->mapper().Lookup(ShardedSpace::LocalOf(lpn));
        EXPECT_TRUE(pa.ok());
        digest += std::to_string(pa->die) + "/" + std::to_string(pa->block) +
                  "/" + std::to_string(pa->page) + ":";
        digest.append(buf.data(), kPageSize);
      }
    }
    digest += "|muts=" + std::to_string(stack.shards[0]->device->mutation_seq());
    digest += "|reads=" + std::to_string(stack.rg(0)->stats().host_reads);
    digest += "|writes=" + std::to_string(stack.rg(0)->stats().host_writes);
    digest += "|gc=" + std::to_string(stack.rg(0)->stats().gc_runs);
    if (fault_shard1) {
      // The faults really fired, and retries absorbed every one of them.
      EXPECT_GT(stack.shards[1]->device->read_failures_transient(), 0u);
      EXPECT_GT(stack.rg(1)->mapper().stats().read_retries, 0u);
      EXPECT_EQ(stack.rg(1)->mapper().stats().read_retries_exhausted, 0u);
      EXPECT_EQ(stack.shards[0]->device->read_failures_transient(), 0u);
    }
    EXPECT_TRUE(stack.rg(0)->VerifyIntegrity().ok());
    EXPECT_TRUE(stack.rg(1)->VerifyIntegrity().ok());
    return digest;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ShardFaultTest, MergedTicketCarriesPerRequestErrorSlots) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  std::vector<uint64_t> base(2);
  std::vector<char> w = PagePattern(50);
  for (uint64_t s = 0; s < 2; s++) {
    auto e = stack.space->AllocateExtentHinted(16, s);
    ASSERT_TRUE(e.ok());
    base[s] = *e;
    for (int i = 0; i < 4; i++) {
      ASSERT_TRUE(
          stack.space->WritePage(base[s] + i, 0, w.data(), 1, nullptr).ok());
    }
  }
  // Burn shard 1's copy of one lpn (written once: no superseded copy to
  // salvage, so the read must surface DataLoss in ITS slot only).
  const uint64_t poisoned = base[1] + 2;
  auto addr = stack.rg(1)->mapper().Lookup(ShardedSpace::LocalOf(poisoned));
  ASSERT_TRUE(addr.ok());
  stack.shards[1]->device->DebugMarkPageUnreadable(*addr);

  const SimTime issue = 1000000;
  std::vector<std::vector<char>> bufs(4, std::vector<char>(kPageSize));
  IoBatch batch;
  batch.AddRead(base[0] + 0, bufs[0].data());
  batch.AddRead(poisoned, bufs[1].data());
  batch.AddRead(base[1] + 3, bufs[2].data());
  batch.AddRead(base[0] + 1, bufs[3].data());
  IoTicket ticket = 0;
  ASSERT_TRUE(stack.space->SubmitBatch(&batch, issue, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  // A failed slot must not wedge the merged ticket: the reap fills every
  // slot, the poisoned one with its own error.
  ASSERT_TRUE(stack.space->WaitBatch(ticket, nullptr).ok());
  EXPECT_TRUE(batch.AllDone());
  EXPECT_EQ(stack.space->PendingBatches(), 0u);
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_TRUE(batch[1].status.IsDataLoss()) << batch[1].status.ToString();
  EXPECT_TRUE(batch[2].status.ok());
  EXPECT_TRUE(batch[3].status.ok());
  EXPECT_EQ(0, memcmp(bufs[0].data(), w.data(), kPageSize));
  EXPECT_EQ(0, memcmp(bufs[2].data(), w.data(), kPageSize));
  EXPECT_EQ(0, memcmp(bufs[3].data(), w.data(), kPageSize));
  // A second WaitBatch on the reaped ticket is a no-op.
  EXPECT_TRUE(stack.space->WaitBatch(ticket, nullptr).ok());
}

TEST(ShardFaultTest, DegradedShardIsReadOnlyAndSpillsAllocations) {
  ShardedStack stack(2, ShardPlacement::kByKey);
  std::vector<uint64_t> base(2);
  std::vector<char> w = PagePattern(60);
  for (uint64_t s = 0; s < 2; s++) {
    auto e = stack.space->AllocateExtentHinted(16, s);
    ASSERT_TRUE(e.ok());
    base[s] = *e;
    ASSERT_TRUE(
        stack.space->WritePage(base[s], 0, w.data(), 1, nullptr).ok());
  }
  stack.space->SetShardDegraded(1, true);
  EXPECT_TRUE(stack.space->ShardDegraded(1));
  EXPECT_TRUE(stack.space->AnyShardDegraded());

  // Writes and trims to the degraded shard fail ReadOnly; reads still work.
  EXPECT_TRUE(stack.space->WritePage(base[1] + 1, 0, w.data(), 1, nullptr)
                  .IsReadOnly());
  EXPECT_TRUE(stack.space->TrimPage(base[1]).IsReadOnly());
  std::vector<char> buf(kPageSize);
  EXPECT_TRUE(stack.space->ReadPage(base[1], 0, buf.data(), nullptr).ok());
  EXPECT_EQ(0, memcmp(buf.data(), w.data(), kPageSize));
  EXPECT_TRUE(stack.space->WritePage(base[0] + 1, 0, w.data(), 1, nullptr)
                  .ok());

  // A mixed merged batch: the degraded shard's write slot fails in place,
  // everything else (including a read on the degraded shard) proceeds.
  IoBatch mixed;
  std::vector<char> rbuf(kPageSize);
  mixed.AddWrite(base[0] + 2, w.data(), 1);
  mixed.AddWrite(base[1] + 2, w.data(), 1);
  mixed.AddRead(base[1], rbuf.data());
  SimTime done = 0;
  ASSERT_TRUE(stack.space->RunBatch(&mixed, 0, &done).ok());
  EXPECT_TRUE(mixed.AllDone());
  EXPECT_TRUE(mixed[0].status.ok());
  EXPECT_TRUE(mixed[1].status.IsReadOnly());
  EXPECT_TRUE(mixed[2].status.ok());
  EXPECT_GE(stack.space->stats().degraded_rejected_writes, 2u);

  // An atomic batch touching the degraded shard rejects as a whole.
  IoBatch atomic;
  atomic.AddWrite(base[1] + 3, w.data(), 1);
  atomic.set_atomic(true);
  IoTicket ticket = 0;
  EXPECT_TRUE(stack.space->SubmitBatch(&atomic, 0, &ticket).IsReadOnly());
  EXPECT_EQ(ticket, 0u);
  EXPECT_TRUE(atomic.AllDone());

  // New extents spill away from the degraded shard even when pinned to it.
  auto spilled = stack.space->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(ShardedSpace::ShardOf(*spilled), 0u);

  // Un-degrading (a test convenience; the router never does) restores writes.
  stack.space->SetShardDegraded(1, false);
  EXPECT_TRUE(
      stack.space->WritePage(base[1] + 1, 0, w.data(), 1, nullptr).ok());
  EXPECT_TRUE(stack.rg(0)->VerifyIntegrity().ok());
  EXPECT_TRUE(stack.rg(1)->VerifyIntegrity().ok());
}

TEST(ShardFaultTest, AtomicBatchIsWhollyRejectedOrWhollyAppliedUnderToggling) {
  // The router may degrade a shard while a batch is being submitted. A
  // single-shard atomic batch must see one answer for all its writes: either
  // every slot is rejected ReadOnly or every write commits.
  ShardedStack stack(2, ShardPlacement::kByKey);
  auto e1 = stack.space->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(e1.ok());
  ASSERT_EQ(ShardedSpace::ShardOf(*e1), 1u);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> toggles{0};
  std::thread toggler([&] {
    for (bool on = true; !stop.load(); on = !on) {
      stack.space->SetShardDegraded(1, on);
      toggles++;
    }
  });
  while (toggles.load() == 0) std::this_thread::yield();
  std::vector<char> w = PagePattern(91);
  SimTime t = 0;
  int rejected = 0;
  int applied = 0;
  for (int i = 0; i < 20000; i++) {
    IoBatch batch;
    for (uint64_t k = 0; k < 4; k++) batch.AddWrite(*e1 + k, w.data(), 1);
    batch.set_atomic(true);
    SimTime done = t;
    Status s = stack.space->RunBatch(&batch, t, &done);
    ASSERT_TRUE(batch.AllDone());
    int ok = 0;
    for (const IoRequest& r : batch.requests()) {
      if (r.status.ok()) {
        ok++;
      } else {
        EXPECT_TRUE(r.status.IsReadOnly()) << r.status.ToString();
      }
    }
    ASSERT_TRUE(ok == 0 || ok == 4) << "batch " << i << " tore: " << ok
                                    << " of 4 writes applied";
    if (ok == 0) {
      EXPECT_TRUE(s.IsReadOnly()) << s.ToString();
      rejected++;
    } else {
      EXPECT_TRUE(s.ok()) << s.ToString();
      applied++;
      t = done;
    }
  }
  stop = true;
  toggler.join();
  stack.space->SetShardDegraded(1, false);
  EXPECT_GT(rejected + applied, 0);
  EXPECT_TRUE(stack.rg(1)->VerifyIntegrity().ok());
}

TEST(ShardFaultTest, RouterHealthDegradesShardPastHardFaultBudget) {
  ShardRouterOptions ro;
  ro.shard.shard_count = 2;
  ro.shard.placement = ShardPlacement::kByKey;
  ro.shard.hard_fault_budget = 2;
  ro.backend = ShardBackend::kNoFtl;
  ro.geometry = SmallGeo();
  auto router = ShardRouter::Open(ro);
  ASSERT_TRUE(router.ok());
  region::RegionOptions opts;
  opts.name = "r";
  opts.max_chips = ro.geometry.total_dies();
  auto space = (*router)->CreateRegion(opts);
  ASSERT_TRUE(space.ok());

  std::vector<uint64_t> base(2);
  std::vector<char> w = PagePattern(70);
  for (uint64_t s = 0; s < 2; s++) {
    auto e = (*space)->AllocateExtentHinted(16, s);
    ASSERT_TRUE(e.ok());
    base[s] = *e;
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(
          (*space)->WritePage(base[s] + i, 0, w.data(), 1, nullptr).ok());
    }
  }
  // Healthy fleet first.
  auto health = (*router)->UpdateHealth();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_FALSE(health[0].degraded);
  EXPECT_FALSE(health[1].degraded);

  // Burn three single-copy pages on shard 1 and read them: three hard
  // faults, over the budget of two.
  for (int i = 0; i < 3; i++) {
    const uint64_t lpn = base[1] + i;
    auto addr =
        (*router)->region(1, "r")->mapper().Lookup(ShardedSpace::LocalOf(lpn));
    ASSERT_TRUE(addr.ok());
    (*router)->device(1)->DebugMarkPageUnreadable(*addr);
    std::vector<char> buf(kPageSize);
    EXPECT_TRUE(
        (*space)->ReadPage(lpn, 0, buf.data(), nullptr).IsDataLoss());
  }
  health = (*router)->UpdateHealth();
  EXPECT_FALSE(health[0].degraded);
  EXPECT_TRUE(health[1].degraded);
  EXPECT_GE(health[1].hard_faults, 3u);

  // The region's sharded space now refuses mutations on shard 1, keeps
  // serving reads of intact pages, and spills pinned allocations.
  EXPECT_TRUE(
      (*space)->WritePage(base[1] + 7, 0, w.data(), 1, nullptr).IsReadOnly());
  std::vector<char> buf(kPageSize);
  EXPECT_TRUE((*space)->ReadPage(base[1] + 7, 0, buf.data(), nullptr).ok());
  EXPECT_EQ(0, memcmp(buf.data(), w.data(), kPageSize));
  EXPECT_TRUE(
      (*space)->WritePage(base[0] + 7, 0, w.data(), 1, nullptr).ok());
  auto spilled = (*space)->AllocateExtentHinted(16, 1);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(ShardedSpace::ShardOf(*spilled), 0u);

  // Sticky across re-checks.
  health = (*router)->UpdateHealth();
  EXPECT_TRUE(health[1].degraded);
}

TEST(ShardFaultTest, DatabaseSurfacesFleetHealth) {
  db::DatabaseOptions o;
  o.geometry = SmallGeo();
  o.sharding.shard_count = 2;
  o.sharding.hard_fault_budget = 4;
  o.buffer.frame_count = 64;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  db::DatabaseHealth health = (*db)->UpdateHealth();
  ASSERT_EQ(health.shards.size(), 2u);
  EXPECT_FALSE(health.any_degraded);
  for (const auto& h : health.shards) {
    EXPECT_EQ(h.hard_faults, 0u);
    EXPECT_FALSE(h.degraded);
  }

  // One shard (the default) applies the same budget: three hard faults over
  // a budget of two turn the database read-only; budget 0 never degrades.
  for (const uint64_t budget : {uint64_t{2}, uint64_t{0}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    db::DatabaseOptions uo;
    uo.geometry = SmallGeo();
    uo.sharding.hard_fault_budget = budget;
    uo.buffer.frame_count = 64;
    auto udb = db::Database::Open(uo);
    ASSERT_TRUE(udb.ok());
    ASSERT_EQ((*udb)->shard_count(), 1u);
    ASSERT_TRUE((*udb)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=4);").ok());
    db::DatabaseHealth uhealth = (*udb)->UpdateHealth();
    ASSERT_EQ(uhealth.shards.size(), 1u);
    EXPECT_FALSE(uhealth.any_degraded);

    ShardedSpace* space = (*udb)->shards()->space("r");
    ASSERT_NE(space, nullptr);
    auto base = space->AllocateExtent(16);
    ASSERT_TRUE(base.ok());
    std::vector<char> w = PagePattern(71);
    for (int i = 0; i < 8; i++) {
      ASSERT_TRUE(space->WritePage(*base + i, 0, w.data(), 1, nullptr).ok());
    }
    region::Region* rg = (*udb)->regions()->Get("r");
    for (int i = 0; i < 3; i++) {
      auto addr = rg->mapper().Lookup(*base + i);
      ASSERT_TRUE(addr.ok());
      (*udb)->device()->DebugMarkPageUnreadable(*addr);
      std::vector<char> buf(kPageSize);
      EXPECT_TRUE(space->ReadPage(*base + i, 0, buf.data(), nullptr)
                      .IsDataLoss());
    }
    uhealth = (*udb)->UpdateHealth();
    ASSERT_EQ(uhealth.shards.size(), 1u);
    EXPECT_GE(uhealth.shards[0].hard_faults, 3u);
    const bool degrade = budget != 0;
    EXPECT_EQ(uhealth.any_degraded, degrade);
    EXPECT_EQ(uhealth.shards[0].degraded, degrade);
    // Read-only once degraded: writes fail, intact pages stay readable.
    const Status write = space->WritePage(*base + 7, 0, w.data(), 1, nullptr);
    EXPECT_EQ(write.IsReadOnly(), degrade) << write.ToString();
    std::vector<char> buf(kPageSize);
    EXPECT_TRUE(space->ReadPage(*base + 6, 0, buf.data(), nullptr).ok());
    EXPECT_EQ(0, memcmp(buf.data(), w.data(), kPageSize));
  }
}

// ---------------------------------------------------------------------------
// Sharded Database facade.
// ---------------------------------------------------------------------------

db::DatabaseOptions ShardedDbOptions(db::Backend backend, uint32_t shards,
                                     ShardPlacement placement) {
  db::DatabaseOptions o;
  o.geometry = SmallGeo();
  o.backend = backend;
  o.sharding.shard_count = shards;
  o.sharding.placement = placement;
  o.buffer.frame_count = 64;
  o.default_extent_pages = 8;  // small extents so tables span several
  return o;
}

TEST(ShardedDatabaseTest, NativeBackendFansRegionsOutAndServesDml) {
  auto db = db::Database::Open(
      ShardedDbOptions(db::Backend::kNoFtl, 2, ShardPlacement::kStripe));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->shard_count(), 2u);
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=4);"
      "CREATE TABLESPACE ts (REGION=r);"
      "CREATE TABLE T (a NUMBER(3)) TABLESPACE ts;").ok());
  // The region exists on every shard.
  for (size_t s = 0; s < 2; s++) {
    ASSERT_NE((*db)->shards()->region(s, "r"), nullptr);
  }

  txn::TxnContext ctx;
  storage::HeapFile* table = (*db)->GetTable("T");
  ASSERT_NE(table, nullptr);
  std::vector<storage::RecordId> rids;
  for (int i = 0; i < 200; i++) {
    auto rid = table->Insert(&ctx,
                             "row-" + std::to_string(i) + std::string(100, 'x'));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (int i = 0; i < 200; i++) {
    auto row = table->Read(&ctx, rids[i]);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, "row-" + std::to_string(i) + std::string(100, 'x'));
  }
  // With striped placement the table's extents landed on both shards.
  const auto& stats = (*db)->shards()->space("r")->stats();
  EXPECT_GT(stats.extents_per_shard[0], 0u);
  EXPECT_GT(stats.extents_per_shard[1], 0u);

  // Checkpoint fans out (no mapper checkpointing configured: it only
  // flushes), then DROP TABLE trims on whichever shards hold the pages.
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  ASSERT_TRUE((*db)->DropTable("T").ok());
  EXPECT_TRUE((*db)->buffer()->VerifyIntegrity().ok());
}

TEST(ShardedDatabaseTest, FtlBackendStripesTheLbaSpace) {
  auto db = db::Database::Open(
      ShardedDbOptions(db::Backend::kFtl, 4, ShardPlacement::kStripe));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTablespace("ts", "", 8).ok());
  auto table = (*db)->CreateTable("T", "ts");
  ASSERT_TRUE(table.ok());
  txn::TxnContext ctx;
  std::vector<storage::RecordId> rids;
  for (int i = 0; i < 300; i++) {
    auto rid = (*table)->Insert(
        &ctx, "ftl-row-" + std::to_string(i) + std::string(100, 'y'));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  for (int i = 0; i < 300; i++) {
    auto row = (*table)->Read(&ctx, rids[i]);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, "ftl-row-" + std::to_string(i) + std::string(100, 'y'));
  }
  const auto& stats = (*db)->shards()->ftl_space()->stats();
  for (uint64_t s = 0; s < 4; s++) {
    EXPECT_GT(stats.extents_per_shard[s], 0u) << "shard " << s << " unused";
  }
}

TEST(ShardedDatabaseTest, ShardedCheckpointPersistsEveryShardsMappers) {
  auto o = ShardedDbOptions(db::Backend::kNoFtl, 2, ShardPlacement::kStripe);
  o.default_mapper.checkpoint_slots = 2;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=4); CREATE TABLESPACE ts (REGION=r);").ok());
  txn::TxnContext ctx;
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  for (size_t s = 0; s < 2; s++) {
    EXPECT_EQ((*db)->shards()->region(s, "r")->mapper().checkpoint_epoch(), 1u)
        << "shard " << s << " missed the fan-out checkpoint";
  }
}

}  // namespace
}  // namespace noftl::shard
