// Queue semantics of the event-driven submit/reap device API and the
// compute–I/O overlap it buys.
//
// Contracts pinned here:
//   * device level: Submit returns a ticket without delivering a result;
//     same-die ops complete FIFO in submission order, cross-die ops complete
//     out of order (whichever die finishes first); WaitFor works on a ticket
//     whose op has long retired and errors on a reaped one.
//   * provider level: SubmitBatch + compute + WaitBatch costs
//     max(compute, max-over-dies I/O) — not the sum — while the reaped
//     results stay byte-identical to call-and-resolve execution; each
//     ticket is reaped on its own, in any order.
//   * buffer level: SubmitFetch/WaitFetch and the FixPage auto-reap keep
//     logical results identical to the blocking FetchPages.
//   * GC satellite: relocation resolves a victim block's OOB metadata once
//     per block, not once per relocated page (MapperStats::gc_meta_lookups).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "flash/device.h"
#include "noftl/region.h"
#include "noftl/region_manager.h"
#include "storage/heap_file.h"
#include "storage/io_batch.h"
#include "test_harness.h"

namespace noftl::storage {
namespace {

using flash::FlashDevice;
using flash::FlashGeometry;
using flash::FlashTiming;
using flash::OpOrigin;
using flash::PageMetadata;
using flash::PhysAddr;
using region::Region;
using region::RegionManager;
using region::RegionOptions;

FlashGeometry SmallGeometry(uint32_t dies) {
  FlashGeometry geo;
  geo.channels = dies;  // one die per channel: cross-die ops overlap fully
  geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 32;
  geo.pages_per_block = 16;
  geo.page_size = 512;
  return geo;
}

/// Program pages 0..count-1 of (die, block 0) with recognizable payloads.
void ProgramSeq(FlashDevice* dev, flash::DieId die, uint32_t count) {
  std::vector<char> data(dev->geometry().page_size);
  for (uint32_t p = 0; p < count; p++) {
    memset(data.data(), static_cast<int>(0x10 + die * 16 + p), data.size());
    PageMetadata meta;
    meta.logical_id = die * 100 + p;
    auto r = dev->ProgramPage({die, 0, p}, /*issue=*/0, OpOrigin::kHost,
                              data.data(), meta);
    ASSERT_TRUE(r.ok());
  }
}

TEST(DeviceQueue, SameDieRequestsCompleteFifoInSubmissionOrder) {
  const FlashGeometry geo = SmallGeometry(4);
  FlashDevice dev(geo, FlashTiming{});
  ProgramSeq(&dev, /*die=*/0, /*count=*/3);
  const FlashTiming timing;
  const SimTime t0 = 1u << 20;  // dies idle again

  std::vector<std::vector<char>> bufs(3, std::vector<char>(geo.page_size));
  std::vector<flash::Ticket> tickets;
  for (uint32_t p = 0; p < 3; p++) {
    tickets.push_back(dev.SubmitRead({{0, 0, p}, bufs[p].data(), nullptr}, t0,
                                     OpOrigin::kHost));
  }
  EXPECT_EQ(dev.QueueDepth(), 3u);

  // Same die: the three reads serialize on the die, completing one service
  // time apart, in submission order — whatever order they are reaped in.
  const SimTime one = timing.read_us + timing.transfer_us;
  for (const int p : {2, 0, 1}) {
    auto r = dev.WaitFor(tickets[p]);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->status.ok());
    EXPECT_EQ(r->complete, t0 + (p + 1) * one) << "read " << p;
  }
  EXPECT_EQ(dev.QueueDepth(), 0u);

  // The array reads landed in the buffers at their queue positions.
  for (uint32_t p = 0; p < 3; p++) {
    EXPECT_EQ(bufs[p][0], static_cast<char>(0x10 + p));
  }
}

TEST(DeviceQueue, CrossDieRequestsCompleteOutOfOrder) {
  const FlashGeometry geo = SmallGeometry(4);
  FlashDevice dev(geo, FlashTiming{});
  ProgramSeq(&dev, /*die=*/0, 1);
  ProgramSeq(&dev, /*die=*/1, 1);
  const FlashTiming timing;
  const SimTime t0 = 1u << 20;

  // Keep die 0 busy with two extra reads, then submit A (die 0) before
  // B (die 1): A is first in submission order but completes after B.
  std::vector<char> buf(geo.page_size);
  const flash::Ticket busy1 =
      dev.SubmitRead({{0, 0, 0}, nullptr, nullptr}, t0, OpOrigin::kHost);
  const flash::Ticket busy2 =
      dev.SubmitRead({{0, 0, 0}, nullptr, nullptr}, t0, OpOrigin::kHost);
  const flash::Ticket a =
      dev.SubmitRead({{0, 0, 0}, buf.data(), nullptr}, t0, OpOrigin::kHost);
  const flash::Ticket b =
      dev.SubmitRead({{1, 0, 0}, buf.data(), nullptr}, t0, OpOrigin::kHost);
  ASSERT_LT(a, b);  // submission order

  const SimTime one = timing.read_us + timing.transfer_us;
  auto ra = dev.WaitFor(a);
  auto rb = dev.WaitFor(b);
  auto r1 = dev.WaitFor(busy1);
  auto r2 = dev.WaitFor(busy2);
  ASSERT_TRUE(ra.ok() && rb.ok() && r1.ok() && r2.ok());
  // Die 0 serves its queue FIFO; B, submitted last, finishes with die 0's
  // first read and two service times before A.
  EXPECT_EQ(r1->complete, t0 + one);
  EXPECT_EQ(r2->complete, t0 + 2 * one);
  EXPECT_EQ(ra->complete, t0 + 3 * one);  // queued behind two reads
  EXPECT_EQ(rb->complete, t0 + one);      // idle die: one service time
  EXPECT_EQ(dev.QueueDepth(), 0u);
}

TEST(DeviceQueue, WaitForWorksOnRetiredTicketAndErrorsOnReapedTicket) {
  const FlashGeometry geo = SmallGeometry(2);
  FlashDevice dev(geo, FlashTiming{});
  ProgramSeq(&dev, /*die=*/0, 1);

  const flash::Ticket t =
      dev.SubmitRead({{0, 0, 0}, nullptr, nullptr}, /*issue=*/0,
                     OpOrigin::kHost);
  // The op retired long ago on the simulated clock; WaitFor still delivers.
  auto r = dev.WaitFor(t);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->status.ok());
  EXPECT_GT(r->complete, 0u);

  // Reaping the same ticket twice is an error, as is an unknown ticket.
  EXPECT_TRUE(dev.WaitFor(t).status().IsInvalidArgument());
  EXPECT_TRUE(dev.WaitFor(t + 1000).status().IsInvalidArgument());
}

/// One device + one region over every die (matches test_io_batch.cc).
struct Stack {
  explicit Stack(const FlashGeometry& geo = SmallGeometry(8))
      : device(geo, FlashTiming{}), manager(&device) {
    RegionOptions options;
    options.name = "rg";
    options.max_chips = geo.total_dies();
    rg = *manager.CreateRegion(options);
  }

  FlashDevice device;
  RegionManager manager;
  Region* rg;
};

std::vector<char> Payload(uint32_t page_size, uint64_t lpn, uint64_t k) {
  std::vector<char> data(page_size);
  for (uint32_t i = 0; i < page_size; i++) {
    data[i] = static_cast<char>((lpn * 31 + k * 7 + i) & 0xFF);
  }
  return data;
}

/// Spread 8 pages over the 8 idle dies; returns the region page size.
uint32_t PopulateOnePagePerDie(Stack* s) {
  const uint32_t page_size = s->rg->page_size();
  for (uint64_t lpn = 0; lpn < 8; lpn++) {
    const auto data = Payload(page_size, lpn, lpn);
    EXPECT_TRUE(s->rg->WritePage(lpn, 0, data.data(), 1, nullptr).ok());
  }
  std::set<flash::DieId> dies;
  for (uint64_t lpn = 0; lpn < 8; lpn++) {
    dies.insert((*s->rg->mapper().Lookup(lpn)).die);
  }
  EXPECT_EQ(dies.size(), 8u);
  return page_size;
}

// The tentpole's acceptance: Submit() no longer resolves work at submit
// time — computation between submit and reap overlaps with the in-flight
// flash operations, so the wall time of submit/compute/reap equals
// max(compute, max-over-dies I/O), while the old call-and-resolve shape
// pays I/O + compute.
TEST(ComputeIoOverlap, WallTimeIsMaxOfComputeAndIo) {
  const FlashTiming timing;
  const SimTime one_read = timing.read_us + timing.transfer_us;

  for (const SimTime compute : {one_read / 2, 5 * one_read}) {
    Stack s;
    const uint32_t page_size = PopulateOnePagePerDie(&s);
    const SimTime t0 = 1u << 20;

    std::vector<std::vector<char>> bufs(8, std::vector<char>(page_size));
    IoBatch batch;
    for (uint64_t lpn = 0; lpn < 8; lpn++) {
      batch.AddRead(lpn, bufs[lpn].data());
    }

    // Submit: returns a ticket immediately; no completion slot is filled.
    IoTicket ticket = 0;
    ASSERT_TRUE(s.rg->SubmitBatch(&batch, t0, &ticket).ok());
    ASSERT_NE(ticket, 0u);
    EXPECT_FALSE(batch.AllDone());
    for (const IoRequest& r : batch.requests()) EXPECT_FALSE(r.done);

    // Compute while the 8 reads are in flight on 8 dies.
    SimTime clock = t0 + compute;

    // Reap: the caller's clock lands at max(compute end, I/O completion).
    SimTime io_done = 0;
    ASSERT_TRUE(s.rg->WaitBatch(ticket, &io_done).ok());
    EXPECT_TRUE(batch.AllDone());
    EXPECT_EQ(io_done - t0, one_read);  // cross-die overlap: max, not sum
    clock = std::max(clock, io_done);
    EXPECT_EQ(clock - t0, std::max(compute, one_read));

    // The old call-and-resolve shape would have paid I/O + compute.
    EXPECT_LT(clock - t0, one_read + compute);

    // And the reaped bytes are the real pages.
    for (uint64_t lpn = 0; lpn < 8; lpn++) {
      const auto expect = Payload(page_size, lpn, lpn);
      EXPECT_EQ(memcmp(bufs[lpn].data(), expect.data(), page_size), 0);
    }

    // Reaping an already-reaped ticket is a no-op.
    SimTime again = 12345;
    EXPECT_TRUE(s.rg->WaitBatch(ticket, &again).ok());
    EXPECT_EQ(again, 12345u);
  }
}

TEST(ComputeIoOverlap, TicketsAreReapedIndependentlyInAnyOrder) {
  Stack s;
  const uint32_t page_size = PopulateOnePagePerDie(&s);
  const FlashTiming timing;
  const SimTime one = timing.read_us + timing.transfer_us;
  const SimTime t0 = 1u << 20;

  // Two batches: one cross-die (completes after one service time), one
  // triple-read of a single page (same die, completes after three).
  std::vector<char> buf(page_size);
  IoBatch fast;
  fast.AddRead(0, buf.data());
  fast.AddRead(1, buf.data());
  IoBatch slow;
  slow.AddRead(2, buf.data());
  slow.AddRead(2, buf.data());
  slow.AddRead(2, buf.data());
  IoTicket tf = 0;
  IoTicket ts = 0;
  ASSERT_TRUE(s.rg->SubmitBatch(&fast, t0, &tf).ok());
  ASSERT_TRUE(s.rg->SubmitBatch(&slow, t0, &ts).ok());
  EXPECT_EQ(s.rg->mapper().PendingBatches(), 2u);

  // Reaping the later, slower ticket first delivers only its own slots.
  SimTime slow_done = 0;
  ASSERT_TRUE(s.rg->WaitBatch(ts, &slow_done).ok());
  EXPECT_TRUE(slow.AllDone());
  EXPECT_FALSE(fast[0].done);
  EXPECT_FALSE(fast[1].done);
  EXPECT_EQ(slow_done - t0, 3 * one);
  for (size_t i = 0; i < 3; i++) {
    EXPECT_EQ(slow[i].complete - t0, (i + 1) * one) << "read " << i;
  }

  SimTime fast_done = 0;
  ASSERT_TRUE(s.rg->WaitBatch(tf, &fast_done).ok());
  EXPECT_TRUE(fast.AllDone());
  EXPECT_EQ(fast_done - t0, one);
  EXPECT_EQ(s.rg->mapper().PendingBatches(), 0u);
}

TEST(ComputeIoOverlap, RejectedAtomicBatchDeliversSlotsImmediately) {
  // A malformed atomic submission yields no ticket — there is nothing in
  // flight to reap — so the error must land in every slot right away, with
  // done set (contract in space_provider.h).
  Stack s;
  std::vector<char> buf(s.rg->page_size());
  IoBatch mixed;
  mixed.AddWrite(0, buf.data(), 1);
  mixed.AddRead(1, buf.data());
  mixed.set_atomic(true);
  IoTicket ticket = 77;
  EXPECT_TRUE(s.rg->SubmitBatch(&mixed, 0, &ticket).IsInvalidArgument());
  EXPECT_EQ(ticket, 0u);
  EXPECT_TRUE(mixed.AllDone());
  EXPECT_TRUE(mixed[0].status.IsInvalidArgument());
  EXPECT_TRUE(mixed[1].status.IsInvalidArgument());
  EXPECT_EQ(s.rg->mapper().valid_pages(), 0u);  // nothing installed
}

TEST(BufferQueue, FixPageAutoReapsInFlightFetchWithIdenticalResults) {
  test::StackOptions o;
  o.channels = 8;
  o.dies_per_channel = 1;
  o.region_dies = 8;
  o.frames = 64;
  test::NativeStack s(o);

  std::vector<uint64_t> page_nos;
  for (int i = 0; i < 8; i++) {
    auto page_no = s.tablespace->AllocatePage(/*object_id=*/1);
    ASSERT_TRUE(page_no.ok());
    auto h = s.pool->FixPage(&s.ctx, {1, *page_no}, /*create=*/true);
    ASSERT_TRUE(h.ok());
    memset(h->data, 0x40 + i, o.page_size);
    s.pool->Unfix(*h, /*dirty=*/true);
    page_nos.push_back(*page_no);
  }
  ASSERT_TRUE(s.pool->FlushAll(&s.ctx).ok());
  for (uint64_t p : page_nos) s.pool->Discard({1, p});

  // Submit a fetch of all 8 cold pages: returns without advancing the clock.
  std::vector<buffer::PageKey> keys;
  for (uint64_t p : page_nos) keys.push_back({1, p});
  const SimTime before = s.ctx.now;
  buffer::FetchTicket ticket = 0;
  ASSERT_TRUE(s.pool->SubmitFetch(&s.ctx, keys, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  EXPECT_EQ(s.ctx.now, before);

  // Touching an in-flight page reaps the fetch first: the clock advances by
  // the batch wait and the data is correct.
  auto h = s.pool->FixPage(&s.ctx, {1, page_nos[3]}, /*create=*/false);
  ASSERT_TRUE(h.ok());
  EXPECT_GT(s.ctx.now, before);
  EXPECT_EQ(h->data[0], static_cast<char>(0x40 + 3));
  s.pool->Unfix(*h, /*dirty=*/false);

  // The whole fetch was delivered: a later WaitFetch is a no-op and every
  // page is resident.
  const SimTime after_fix = s.ctx.now;
  ASSERT_TRUE(s.pool->WaitFetch(&s.ctx, ticket).ok());
  EXPECT_EQ(s.ctx.now, after_fix);
  for (int i = 0; i < 8; i++) {
    auto h2 = s.pool->FixPage(&s.ctx, {1, page_nos[i]}, /*create=*/false);
    ASSERT_TRUE(h2.ok());
    EXPECT_EQ(h2->data[0], static_cast<char>(0x40 + i));
    s.pool->Unfix(*h2, /*dirty=*/false);
  }
  ASSERT_TRUE(s.pool->VerifyIntegrity().ok());
}

TEST(BufferQueue, PipelinedScanSeesAllRecords) {
  // Pool large enough that HeapFile::Scan pipelines (submit chunk k+1
  // before processing chunk k); the visited set must match the blocking
  // scan exactly.
  test::StackOptions o;
  o.channels = 8;
  o.dies_per_channel = 1;
  o.region_dies = 8;
  o.frames = 128;
  test::NativeStack s(o);
  storage::HeapFile heap(2, "t", s.tablespace.get(), s.pool.get());

  std::set<std::string> expected;
  for (int i = 0; i < 1500; i++) {
    const std::string rec = "pipelined-record-" + std::to_string(i);
    ASSERT_TRUE(heap.Insert(&s.ctx, Slice(rec)).ok());
    expected.insert(rec);
  }
  ASSERT_TRUE(s.pool->FlushAll(&s.ctx).ok());
  ASSERT_GT(heap.page_count(), 48u);  // several chunks

  std::set<std::string> seen;
  ASSERT_TRUE(heap.Scan(&s.ctx,
                        [&](storage::RecordId, Slice rec) {
                          seen.insert(std::string(rec.data(), rec.size()));
                          return true;
                        })
                  .ok());
  EXPECT_EQ(seen, expected);

  // Early stop mid-chunk: the in-flight next chunk must be drained (no
  // leaked claim pins — VerifyIntegrity plus a full re-scan prove it).
  size_t visited = 0;
  ASSERT_TRUE(heap.Scan(&s.ctx,
                        [&](storage::RecordId, Slice) {
                          return ++visited < 40;
                        })
                  .ok());
  ASSERT_TRUE(s.pool->VerifyIntegrity().ok());
  seen.clear();
  ASSERT_TRUE(heap.Scan(&s.ctx,
                        [&](storage::RecordId, Slice rec) {
                          seen.insert(std::string(rec.data(), rec.size()));
                          return true;
                        })
                  .ok());
  EXPECT_EQ(seen, expected);
}

TEST(GcCopybackBatching, OneMetadataLookupPerVictimBlock) {
  // Fill the region, then keep rewriting a stride-8 slice: the updates burn
  // the free blocks while leaving every other block ~7/8 valid, so GC must
  // relocate many valid pages per victim. The relocation metadata lookups
  // (one per victim visit) must then be well below the copybacks (one per
  // relocated page) — before the batching, the two counters were equal by
  // construction.
  Stack s;
  const uint32_t page_size = s.rg->page_size();
  const uint64_t pages = s.rg->logical_pages();
  std::vector<char> data(page_size, 0x5A);
  SimTime t = 0;
  for (uint64_t lpn = 0; lpn < pages; lpn++) {
    ASSERT_TRUE(s.rg->WritePage(lpn, t, data.data(), 1, nullptr).ok());
    t += 5;
  }
  // Stride 3 is coprime with the 8-die round-robin placement, so the
  // invalidations spread over every die's blocks (a stride sharing a factor
  // with the die count would starve the other dies of victims).
  for (int round = 0; round < 8; round++) {
    for (uint64_t lpn = 0; lpn < pages; lpn += 3) {
      ASSERT_TRUE(s.rg->WritePage(lpn, t, data.data(), 1, nullptr).ok());
      t += 5;
    }
  }
  const ftl::MapperStats& stats = s.rg->stats();
  ASSERT_GT(stats.gc_copybacks, 0u);
  ASSERT_GT(stats.gc_meta_lookups, 0u);
  // Victims carry many valid pages each: the victim's metadata array is
  // resolved once when it is picked, so one lookup amortizes over every
  // relocation of the victim even though GC relocates only a few pages per
  // host write.
  EXPECT_LE(stats.gc_meta_lookups * 2, stats.gc_copybacks)
      << "copybacks=" << stats.gc_copybacks
      << " lookups=" << stats.gc_meta_lookups;
  // Pacing by the victim's valid count keeps up with 7/8-valid victims: no
  // host write has to stall for a full emergency reclamation.
  EXPECT_EQ(stats.emergency_reclaims, 0u);
  EXPECT_TRUE(s.rg->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace noftl::storage
