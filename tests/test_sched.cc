// BackgroundScheduler tests: idle-time detection (a loaded die receives no
// background issues), GC-backlog draining on idle dies, write-admission
// throttling with hysteresis, the queued-scrub regression (a scrub queued by
// the read path completes without a later read fault), idle-time
// checkpointing, scheduler lifecycle through Database/ShardRouter, and a
// multi-threaded service-thread stress run (TSan target, label "stress").
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "db/database.h"
#include "flash/device.h"
#include "ftl/mapping.h"
#include "sched/background_scheduler.h"

namespace noftl::sched {
namespace {

using flash::OpOrigin;

flash::FlashGeometry TinyGeometry(uint32_t blocks_per_die = 16,
                                  uint32_t pages_per_block = 8) {
  flash::FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = blocks_per_die;
  geo.pages_per_block = pages_per_block;
  geo.page_size = 256;
  return geo;
}

std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

/// Overwrite `logical` pages cyclically until `writes` host writes ran,
/// building garbage for GC; returns the clock after the last completion.
SimTime Churn(ftl::OutOfPlaceMapper* mapper, uint64_t logical, int writes,
              SimTime start = 0) {
  std::vector<char> data(256, 'x');
  SimTime t = start;
  for (int i = 0; i < writes; i++) {
    SimTime done = t;
    Status s = mapper->Write(static_cast<uint64_t>(i) % logical, t,
                             OpOrigin::kHost, data.data(), 1, &done);
    EXPECT_TRUE(s.ok()) << s.ToString();
    t = done;
  }
  return t;
}

SimTime MaxBusyHorizon(flash::FlashDevice* device,
                       const std::vector<flash::DieId>& dies) {
  SimTime frontier = 0;
  for (flash::DieId die : dies) {
    frontier = std::max(frontier, device->DieBusyUntil(die));
  }
  return frontier;
}

TEST(BackgroundSchedulerTest, BusyDiesGetNothingIdleDiesDrainBacklog) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::OutOfPlaceMapper mapper(&device, AllDies(geo), /*logical_pages=*/256,
                               ftl::MapperOptions{});
  const SimTime after = Churn(&mapper, 256, 800);
  ASSERT_GT(after, 0u);

  SchedulerOptions so;
  so.batch_pages = 16;
  so.quanta_per_tick = 8;
  so.gc_free_target = 6;  // above the inline high watermark: real backlog
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);

  // Every die's busy horizon is ahead of sim time 0: a tick "now" must not
  // issue a single background op — the dies are loaded.
  EXPECT_EQ(sched.Tick(0), 0u);
  EXPECT_EQ(sched.stats().idle_grants, 0u);
  EXPECT_EQ(sched.stats().busy_skips, geo.total_dies());
  EXPECT_EQ(mapper.stats().bg_gc_pages + mapper.stats().bg_gc_erases, 0u);

  // At the frontier all dies are idle: the GC backlog (free blocks below
  // the proactive target) drains off the foreground path. Pure-overwrite
  // churn leaves fully-invalid victims, so the work may be erase-only.
  const uint64_t free_before = mapper.FreePages();
  const uint64_t issued = sched.Tick(MaxBusyHorizon(&device, mapper.dies()));
  EXPECT_GT(issued, 0u);
  EXPECT_GT(sched.stats().idle_grants, 0u);
  EXPECT_GT(mapper.stats().bg_gc_pages + mapper.stats().bg_gc_erases, 0u);
  EXPECT_GT(mapper.FreePages(), free_before);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(BackgroundSchedulerTest, PendingForegroundBatchBlocksGrants) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  // Single-die mapper: one queued foreground op must silence the whole
  // scheduler even at a far-future tick time.
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40,
                               ftl::MapperOptions{});
  const SimTime after = Churn(&mapper, 40, 300);

  SchedulerOptions so;
  so.batch_pages = 16;
  so.quanta_per_tick = 8;
  so.gc_free_target = 6;
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);

  // Submit a read batch and do NOT reap it: the die keeps a pending
  // foreground op until WaitBatch, regardless of how far sim time advances.
  std::vector<char> buf(geo.page_size, 0);
  storage::IoRequest req;
  req.op = storage::IoOp::kRead;
  req.lpn = 0;
  req.read_buf = buf.data();
  storage::IoTicket ticket = 0;
  ASSERT_TRUE(
      mapper.SubmitBatch(&req, 1, after, OpOrigin::kHost, &ticket).ok());
  ASSERT_EQ(device.DiePendingHostOps(0), 1u);

  EXPECT_EQ(sched.Tick(after + 1'000'000), 0u);
  EXPECT_EQ(sched.stats().idle_grants, 0u);
  EXPECT_EQ(sched.stats().busy_skips, 1u);

  // Reaping the batch clears the queue; the same tick now gets the grant.
  SimTime done = after;
  ASSERT_TRUE(mapper.WaitBatch(ticket, &done).ok());
  ASSERT_EQ(device.DiePendingHostOps(0), 0u);
  EXPECT_GT(sched.Tick(after + 1'000'000), 0u);
  EXPECT_GT(sched.stats().idle_grants, 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(BackgroundSchedulerTest, ThrottleEngagesBelowLowReleasesAtHigh) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::MapperOptions mo;
  mo.gc_low_watermark = 0;  // no inline GC: only the throttle guards space
  mo.gc_high_watermark = 2;
  mo.throttle_low_watermark = 3;
  mo.throttle_high_watermark = 5;
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40, mo);

  // No background reclaimer attached: admission fails fast with Busy once
  // the die's free-block reserve drops below the low watermark.
  std::vector<char> data(geo.page_size, 'y');
  SimTime t = 0;
  Status last = Status::OK();
  for (int i = 0; i < 2000; i++) {
    SimTime done = t;
    last = mapper.Write(static_cast<uint64_t>(i) % 40, t, OpOrigin::kHost,
                        data.data(), 1, &done);
    if (!last.ok()) break;
    t = done;
  }
  ASSERT_TRUE(last.IsBusy()) << last.ToString();
  EXPECT_GE(mapper.stats().throttle_events, 1u);
  EXPECT_GE(mapper.stats().throttle_busy, 1u);
  // The throttle engaged while 2 free blocks remained — before the
  // emergency inline path (free_count <= 1) could ever trigger.
  EXPECT_EQ(mapper.stats().emergency_reclaims, 0u);

  // Hysteresis: background GC to 4 free blocks (above low, below high)
  // must NOT release the throttle...
  ftl::OutOfPlaceMapper::BackgroundPolicy policy;
  policy.max_pages = 10000;
  policy.free_target = 4;
  ftl::OutOfPlaceMapper::BackgroundWork work;
  ASSERT_TRUE(mapper.BackgroundMaintainDie(0, t, policy, &work).ok());
  EXPECT_GT(work.gc_pages + work.gc_erases, 0u);
  SimTime done = t;
  EXPECT_TRUE(mapper.Write(0, t, OpOrigin::kHost, data.data(), 1, &done)
                  .IsBusy());

  // ...and reclaiming past the high watermark must.
  policy.free_target = 6;
  ASSERT_TRUE(mapper.BackgroundMaintainDie(0, t, policy, &work).ok());
  EXPECT_TRUE(
      mapper.Write(0, t, OpOrigin::kHost, data.data(), 1, &done).ok());
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(BackgroundSchedulerTest, ThrottledBatchSubmitDeliversEverySlot) {
  // A batch rejected at write admission yields no ticket, so nothing could
  // ever reap its slots: they must all resolve, with the rejection, before
  // SubmitBatch returns.
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::MapperOptions mo;
  mo.gc_low_watermark = 0;
  mo.gc_high_watermark = 2;
  mo.throttle_low_watermark = 3;
  mo.throttle_high_watermark = 5;
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40, mo);
  std::vector<char> data(geo.page_size, 'b');
  SimTime t = 0;
  for (int i = 0; i < 2000; i++) {
    SimTime done = t;
    if (!mapper.Write(static_cast<uint64_t>(i) % 40, t, OpOrigin::kHost,
                      data.data(), 1, &done)
             .ok()) {
      break;
    }
    t = done;
  }
  ASSERT_GE(mapper.stats().throttle_busy, 1u);

  // No reclaimer attached: the throttled batch — a read ahead of its
  // writes included — comes back Busy with every slot filled.
  std::vector<char> buf(geo.page_size);
  storage::IoBatch batch;
  batch.AddRead(0, buf.data());
  batch.AddWrite(1, data.data(), 1);
  batch.AddWrite(2, data.data(), 1);
  storage::IoTicket ticket = 0;
  Status s = mapper.SubmitBatch(batch.requests().data(), batch.size(), t,
                                OpOrigin::kHost, &ticket);
  ASSERT_TRUE(s.IsBusy()) << s.ToString();
  EXPECT_EQ(ticket, 0u);
  EXPECT_TRUE(batch.AllDone());
  for (const storage::IoRequest& r : batch.requests()) {
    EXPECT_TRUE(r.done);
    EXPECT_TRUE(r.status.IsBusy()) << r.status.ToString();
  }
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(BackgroundSchedulerTest, QueuedScrubCompletesWithoutAnotherRead) {
  // Regression: a read-health scrub queued by the read path used to drain
  // only at the next read of the same mapper — a block disturbed by the
  // last read of a workload stayed a data hazard forever. The scheduler
  // must drain it with no further read traffic.
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40,
                               ftl::MapperOptions{});
  std::vector<char> data(geo.page_size, 'z');
  SimTime t = 0;
  ASSERT_TRUE(mapper.Write(7, t, OpOrigin::kHost, data.data(), 1, &t).ok());

  flash::FaultOptions fo;
  fo.read_disturb_limit = 2;   // third read of the block flags `disturbed`
  fo.read_disturb_rate = 0.0;  // ...but still succeeds: no read fault at all
  device.SetFaults(fo);

  std::vector<char> buf(geo.page_size, 0);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(mapper.Read(7, t, OpOrigin::kHost, buf.data(), &t).ok());
  }
  ASSERT_EQ(mapper.read_scrub_queue(), 1u);

  SchedulerOptions so;
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);
  sched.Tick(MaxBusyHorizon(&device, mapper.dies()));

  EXPECT_EQ(mapper.read_scrub_queue(), 0u);
  EXPECT_GE(mapper.stats().read_scrub_blocks, 1u);
  EXPECT_GE(mapper.stats().bg_scrub_blocks, 1u);
  EXPECT_GE(sched.stats().bg_scrub_blocks, 1u);

  // The disturbed block's data survived the relocation.
  device.SetFaults(flash::FaultOptions{});
  ASSERT_TRUE(mapper.Read(7, t, OpOrigin::kHost, buf.data(), &t).ok());
  EXPECT_EQ(memcmp(buf.data(), data.data(), buf.size()), 0);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(BackgroundSchedulerTest, CheckpointsOnlyWhenAllDiesIdle) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::MapperOptions mo;
  mo.checkpoint_slots = 2;
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40, mo);
  const SimTime after = Churn(&mapper, 40, 100);
  ASSERT_EQ(mapper.checkpoint_epoch(), 0u);

  SchedulerOptions so;
  so.checkpoint_interval_us = 10;
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);

  // Busy die: no grant, no checkpoint.
  sched.Tick(0);
  EXPECT_EQ(mapper.checkpoint_epoch(), 0u);
  EXPECT_EQ(sched.stats().bg_checkpoints, 0u);

  // Idle: the periodic checkpoint fires.
  sched.Tick(MaxBusyHorizon(&device, mapper.dies()));
  EXPECT_GE(mapper.checkpoint_epoch(), 1u);
  EXPECT_GE(sched.stats().bg_checkpoints, 1u);
  (void)after;
}

TEST(BackgroundSchedulerTest, QuiesceBlocksTicks) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/40,
                               ftl::MapperOptions{});
  Churn(&mapper, 40, 300);

  SchedulerOptions so;
  so.gc_free_target = 6;
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);

  sched.Quiesce();
  EXPECT_EQ(sched.Tick(MaxBusyHorizon(&device, mapper.dies())), 0u);
  EXPECT_EQ(sched.stats().ticks, 0u);
  sched.Resume();
  EXPECT_GT(sched.Tick(MaxBusyHorizon(&device, mapper.dies())), 0u);
}

db::DatabaseOptions SmallDbOptions() {
  db::DatabaseOptions o;
  o.geometry.channels = 4;
  o.geometry.dies_per_channel = 4;
  o.geometry.planes_per_die = 1;
  o.geometry.blocks_per_die = 32;
  o.geometry.pages_per_block = 16;
  o.geometry.page_size = 512;
  o.buffer.frame_count = 128;
  o.default_extent_pages = 8;
  o.scheduler.enabled = true;
  o.scheduler.gc_free_target = 6;
  return o;
}

TEST(BackgroundSchedulerTest, DatabaseLifecycleRegistersAndUnregisters) {
  auto db = db::Database::Open(SmallDbOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_NE((*db)->scheduler(), nullptr);
  ASSERT_TRUE((*db)
                  ->ExecuteScript(
                      "CREATE REGION rgA (MAX_CHIPS=8, MAX_CHANNELS=4, "
                      "MAX_SIZE=1M);"
                      "CREATE TABLESPACE tsA (REGION=rgA, EXTENT SIZE 4K);"
                      "CREATE TABLE T(t_id NUMBER(3))TABLESPACE tsA;")
                  .ok());
  storage::HeapFile* table = (*db)->GetTable("T");
  ASSERT_NE(table, nullptr);
  txn::TxnContext ctx;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(table->Insert(&ctx, std::string(64, 'a' + i % 26)).ok());
  }
  // Deterministic ticks between work: no crash, and a checkpoint-style
  // quiesce (Database::Checkpoint) interleaves cleanly.
  (*db)->TickSchedulers(ctx.now);
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  (*db)->TickSchedulers(ctx.now);

  // Dropping the region unregisters its mapper; later ticks must not touch
  // freed state.
  ASSERT_TRUE((*db)->DropTable("T").ok());
  ASSERT_TRUE((*db)->DropTablespace("tsA").ok());
  ASSERT_TRUE((*db)->DropRegion("rgA").ok());
  (*db)->TickSchedulers(ctx.now + 1000);
}

TEST(BackgroundSchedulerTest, ShardedDatabaseTicksEveryShard) {
  db::DatabaseOptions o = SmallDbOptions();
  o.sharding.shard_count = 2;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ((*db)->shard_count(), 2u);
  ASSERT_NE((*db)->shards()->scheduler(0), nullptr);
  ASSERT_NE((*db)->shards()->scheduler(1), nullptr);
  ASSERT_TRUE((*db)
                  ->ExecuteScript(
                      "CREATE REGION rgS (MAX_CHIPS=4);"
                      "CREATE TABLESPACE tsS (REGION=rgS);"
                      "CREATE TABLE S(s_id NUMBER(3))TABLESPACE tsS;")
                  .ok());
  storage::HeapFile* table = (*db)->GetTable("S");
  ASSERT_NE(table, nullptr);
  txn::TxnContext ctx;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(table->Insert(&ctx, std::string(64, 'b' + i % 26)).ok());
  }
  (*db)->TickSchedulers(ctx.now);
  const SchedulerStats total = (*db)->SchedulerStatsTotal();
  EXPECT_GE(total.ticks, 2u);  // one per shard
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  ASSERT_TRUE((*db)->DropTable("S").ok());
  ASSERT_TRUE((*db)->DropTablespace("tsS").ok());
  ASSERT_TRUE((*db)->DropRegion("rgS").ok());
  (*db)->TickSchedulers(ctx.now + 1000);
}

// The database's scheduler totals are the field-wise sum over the shards'
// schedulers — erase pacing's deferred count included.
TEST(BackgroundSchedulerTest, ShardedTotalsSumEveryCounter) {
  db::DatabaseOptions o = SmallDbOptions();
  o.sharding.shard_count = 2;
  o.scheduler.gc_free_target = 30;
  // One background erase costs far more sim time than the run earns, so
  // every fully relocated victim is deferred.
  o.scheduler.erase_pace_window_us = 1'000'000'000;
  auto db = db::Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("CREATE REGION rgP (MAX_CHIPS=4);").ok());
  shard::ShardedSpace* space = (*db)->shards()->space("rgP");
  ASSERT_NE(space, nullptr);

  // A GC backlog on both shards: striped extents, each page overwritten
  // three times, so whole blocks of superseded copies wait for GC.
  std::vector<uint64_t> extents;
  for (int e = 0; e < 2; e++) {
    auto base = space->AllocateExtent(64);
    ASSERT_TRUE(base.ok());
    extents.push_back(*base);
  }
  std::vector<char> page(512, 'g');
  SimTime now = 0;
  for (int round = 0; round < 3; round++) {
    for (const uint64_t base : extents) {
      for (uint64_t p = 0; p < 64; p++) {
        SimTime done = now;
        ASSERT_TRUE(
            space->WritePage(base + p, now, page.data(), 1, &done).ok());
        now = std::max(now, done);
      }
    }
  }
  (*db)->TickSchedulers(now + 1000);

  for (size_t s = 0; s < (*db)->shard_count(); s++) {
    EXPECT_GT((*db)->shards()->scheduler(s)->stats().bg_erase_deferred, 0u)
        << "shard " << s;
  }
  // Summed here field by field, independently of SchedulerStats::operator+=.
  const SchedulerStats total = (*db)->SchedulerStatsTotal();
  for (RelaxedCounter SchedulerStats::*field :
       {&SchedulerStats::ticks, &SchedulerStats::bg_gc_pages,
        &SchedulerStats::bg_gc_erases, &SchedulerStats::bg_scrub_blocks,
        &SchedulerStats::bg_wl_pages, &SchedulerStats::bg_checkpoints,
        &SchedulerStats::idle_grants, &SchedulerStats::busy_skips,
        &SchedulerStats::preemptions, &SchedulerStats::bg_erase_deferred}) {
    uint64_t sum = 0;
    for (size_t s = 0; s < (*db)->shard_count(); s++) {
      sum += (*db)->shards()->scheduler(s)->stats().*field;
    }
    EXPECT_EQ(static_cast<uint64_t>(total.*field), sum);
  }
  EXPECT_GT(total.bg_erase_deferred, 0u);
  EXPECT_EQ(total.ticks, 2u);
}

// Service-thread mode under real concurrency (the TSan "stress" target):
// writers hammer the mapper with admission control on while the scheduler
// thread grants background work at the moving frontier. The run must stay
// consistent and every committed write readable.
TEST(BackgroundSchedulerStress, ServiceThreadWithConcurrentWriters) {
  flash::FlashGeometry geo = TinyGeometry(/*blocks_per_die=*/32,
                                          /*pages_per_block=*/16);
  flash::FlashDevice device(geo, flash::FlashTiming{});
  ftl::MapperOptions mo;
  mo.throttle_low_watermark = 2;
  mo.throttle_high_watermark = 4;
  mo.throttle_wait_us = 500;
  ftl::OutOfPlaceMapper mapper(&device, AllDies(geo), /*logical_pages=*/512,
                               mo);

  SchedulerOptions so;
  so.service_thread = true;
  so.poll_interval_us = 50;
  so.batch_pages = 8;
  so.quanta_per_tick = 4;
  so.gc_free_target = 6;
  so.wl_spread = 4;
  BackgroundScheduler sched(&device, so);
  sched.RegisterMapper(&mapper);
  sched.Start();
  ASSERT_TRUE(sched.running());

  constexpr int kWriters = 3;
  constexpr int kWritesPerWriter = 1200;
  std::atomic<int> busy_retries{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      std::vector<char> data(geo.page_size, static_cast<char>('A' + w));
      SimTime t = 0;
      for (int i = 0; i < kWritesPerWriter; i++) {
        // Disjoint per-writer lpn ranges: a writer must never overwrite
        // another's pages, or the spot-check readback races.
        const uint64_t lpn = static_cast<uint64_t>(w) * 170 +
                             static_cast<uint64_t>(i) % 170;
        for (;;) {
          SimTime done = t;
          Status s = mapper.Write(lpn, t, OpOrigin::kHost, data.data(),
                                  static_cast<uint32_t>(w), &done);
          if (s.ok()) {
            t = done;
            break;
          }
          ASSERT_TRUE(s.IsBusy()) << s.ToString();
          busy_retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (i % 64 == 0) {
          std::vector<char> buf(geo.page_size, 0);
          Status s = mapper.Read(lpn, t, OpOrigin::kHost, buf.data(), &t);
          ASSERT_TRUE(s.ok()) << s.ToString();
          ASSERT_EQ(buf[0], static_cast<char>('A' + w));
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  sched.Stop();
  EXPECT_FALSE(sched.running());
  EXPECT_GT(sched.stats().ticks, 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
  EXPECT_EQ(mapper.stats().reads_lost, 0u);
}

}  // namespace
}  // namespace noftl::sched
