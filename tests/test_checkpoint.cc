// Checkpoint + per-die-parallel delta recovery: the equivalence suite.
//
// Every scenario builds *twin* devices that replay the identical,
// deterministic workload (including the checkpoint writes themselves, which
// program flash), crashes both, and recovers one mapper through the
// checkpoint + delta-scan path and the other through the forced full OOB
// scan. The two recovered mappers must agree byte-for-byte on L2P,
// versions, batch counters and the data itself — while the delta path reads
// far fewer pages and finishes in far less simulated time.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "flash/device.h"
#include "ftl/checkpoint.h"
#include "ftl/mapping.h"

namespace noftl::ftl {
namespace {

flash::FlashGeometry CkptGeometry() {
  flash::FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 32;
  geo.pages_per_block = 8;
  geo.page_size = 256;
  return geo;
}

std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

MapperOptions CkptOptions() {
  MapperOptions o;
  o.checkpoint_slots = 2;
  return o;
}

constexpr uint64_t kLogicalPages = 320;

/// Deterministic churn: plain overwrites plus occasional small atomic
/// batches (no trims — trims are deliberately *more* durable under
/// checkpoints, see the dedicated test below). Updates `shadow` alongside.
void Churn(OutOfPlaceMapper* mapper, const flash::FlashGeometry& geo,
           std::map<uint64_t, char>* shadow, uint64_t seed, int steps) {
  Rng rng(seed);
  for (int step = 0; step < steps; step++) {
    if (rng.Below(12) == 0) {
      const size_t n = 2 + rng.Below(3);
      std::vector<std::vector<char>> payloads;
      std::vector<OutOfPlaceMapper::BatchPage> batch;
      std::set<uint64_t> used;
      while (batch.size() < n) {
        const uint64_t lpn = rng.Below(kLogicalPages);
        if (!used.insert(lpn).second) continue;
        payloads.emplace_back(geo.page_size,
                              static_cast<char>(rng.Below(250) + 1));
        batch.push_back({lpn, payloads.back().data()});
      }
      ASSERT_TRUE(mapper
                      ->WriteAtomicBatch(batch, 0, flash::OpOrigin::kHost, 0,
                                         nullptr)
                      .ok())
          << "churn step " << step;
      for (size_t i = 0; i < batch.size(); i++) {
        (*shadow)[batch[i].lpn] = payloads[i][0];
      }
    } else {
      const uint64_t lpn = rng.Below(kLogicalPages);
      std::vector<char> data(geo.page_size,
                             static_cast<char>(rng.Below(250) + 1));
      ASSERT_TRUE(mapper->Write(lpn, 0, flash::OpOrigin::kHost, data.data(),
                                0, nullptr).ok())
          << "churn step " << step;
      (*shadow)[lpn] = data[0];
    }
  }
}

/// Byte-for-byte equivalence of two recovered mappers: identical L2P,
/// versions and batch counters; both internally consistent.
///
/// `version_ahead_ok` lists lpns whose RAM version counter may exceed the
/// full-scan result: members of an aborted batch whose orphan copies were
/// fully scrubbed off flash. The runtime abort path bumped their counters
/// past the orphans, the checkpoint preserved that, and no scan can
/// reconstruct it — running ahead is the safe direction (a reused version
/// could tie with a surviving orphan), never behind.
void ExpectIdenticalState(OutOfPlaceMapper& ckpt, OutOfPlaceMapper& full,
                          const std::set<uint64_t>& version_ahead_ok = {}) {
  EXPECT_TRUE(ckpt.VerifyIntegrity().ok());
  EXPECT_TRUE(full.VerifyIntegrity().ok());
  EXPECT_EQ(ckpt.valid_pages(), full.valid_pages());
  EXPECT_EQ(ckpt.committed_batches(), full.committed_batches());
  // The checkpoint remembers ids of aborted batches whose orphans were
  // fully scrubbed (invisible to any scan), so it may only run ahead.
  EXPECT_GE(ckpt.next_batch_id(), full.next_batch_id());
  for (uint64_t lpn = 0; lpn < kLogicalPages; lpn++) {
    ASSERT_EQ(ckpt.IsMapped(lpn), full.IsMapped(lpn)) << "lpn " << lpn;
    if (version_ahead_ok.count(lpn) != 0) {
      ASSERT_GE(ckpt.DebugVersionOf(lpn), full.DebugVersionOf(lpn))
          << "lpn " << lpn;
    } else {
      ASSERT_EQ(ckpt.DebugVersionOf(lpn), full.DebugVersionOf(lpn))
          << "lpn " << lpn;
    }
    if (!ckpt.IsMapped(lpn)) continue;
    const flash::PhysAddr a = *ckpt.Lookup(lpn);
    const flash::PhysAddr b = *full.Lookup(lpn);
    ASSERT_TRUE(a == b) << "lpn " << lpn << " mapped to die " << a.die
                        << "/b" << a.block << "/p" << a.page << " vs die "
                        << b.die << "/b" << b.block << "/p" << b.page;
  }
}

void ExpectShadowReadable(OutOfPlaceMapper& mapper,
                          const flash::FlashGeometry& geo,
                          const std::map<uint64_t, char>& shadow) {
  std::vector<char> buf(geo.page_size);
  for (const auto& [lpn, fill] : shadow) {
    ASSERT_TRUE(
        mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok())
        << "lpn " << lpn;
    ASSERT_EQ(buf[0], fill) << "lpn " << lpn;
  }
}

class CheckpointEquivalenceTest : public ::testing::Test {
 protected:
  CheckpointEquivalenceTest()
      : geo_(CkptGeometry()),
        device_a_(geo_, flash::FlashTiming{}),
        device_b_(geo_, flash::FlashTiming{}) {}

  /// Replay `workload` identically on both devices, crash, recover A via
  /// checkpoint + delta and B via forced full scan.
  void RunTwins(
      const std::function<void(flash::FlashDevice*, OutOfPlaceMapper*,
                               std::map<uint64_t, char>*)>& workload) {
    {
      OutOfPlaceMapper a(&device_a_, AllDies(geo_), kLogicalPages,
                         CkptOptions());
      ASSERT_TRUE(a.CheckCapacity().ok());
      workload(&device_a_, &a, &shadow_);
      std::map<uint64_t, char> shadow_b;
      OutOfPlaceMapper b(&device_b_, AllDies(geo_), kLogicalPages,
                         CkptOptions());
      workload(&device_b_, &b, &shadow_b);
      ASSERT_EQ(shadow_, shadow_b);
    }  // crash: RAM state dropped
    SimTime done = 0;
    auto ra = OutOfPlaceMapper::RecoverFromDevice(
        &device_a_, AllDies(geo_), kLogicalPages, CkptOptions(), 0, &done);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    recovered_ckpt_ = std::move(*ra);
    auto rb = OutOfPlaceMapper::DebugRecoverByFullScan(
        &device_b_, AllDies(geo_), kLogicalPages, CkptOptions(), 0, &done);
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    recovered_full_ = std::move(*rb);
  }

  flash::FlashGeometry geo_;
  flash::FlashDevice device_a_;
  flash::FlashDevice device_b_;
  std::map<uint64_t, char> shadow_;
  std::unique_ptr<OutOfPlaceMapper> recovered_ckpt_;
  std::unique_ptr<OutOfPlaceMapper> recovered_full_;
};

TEST_F(CheckpointEquivalenceTest, DeltaRecoveryMatchesFullScanAfterGcChurn) {
  RunTwins([&](flash::FlashDevice* dev, OutOfPlaceMapper* m,
               std::map<uint64_t, char>* shadow) {
    (void)dev;
    Churn(m, geo_, shadow, /*seed=*/101, /*steps=*/1500);
    ASSERT_GT(m->stats().gc_copybacks, 0u) << "churn never triggered GC";
    ASSERT_TRUE(m->WriteCheckpoint(0, nullptr).ok());
    Churn(m, geo_, shadow, /*seed=*/202, /*steps=*/150);
  });
  EXPECT_EQ(recovered_ckpt_->stats().recovery_ckpt_epoch, 1u);
  EXPECT_EQ(recovered_full_->stats().recovery_ckpt_epoch, 0u);
  ExpectIdenticalState(*recovered_ckpt_, *recovered_full_);
  ExpectShadowReadable(*recovered_ckpt_, geo_, shadow_);
  // The delta scan must have skipped the blocks untouched since the
  // checkpoint (the 150-step tail mutates far fewer than all blocks).
  EXPECT_LT(recovered_ckpt_->stats().recovery_pages_scanned,
            recovered_full_->stats().recovery_pages_scanned / 2);
}

TEST_F(CheckpointEquivalenceTest, CrashImmediatelyAfterCheckpointScansNothing) {
  // Also the sharpest test of the checkpoint quiesce: the churn leaves
  // half-reclaimed GC victims whose already-relocated pages tie on version
  // with their new copies; WriteCheckpoint must resolve those before the
  // snapshot or the two recovery paths would break ties differently.
  RunTwins([&](flash::FlashDevice* dev, OutOfPlaceMapper* m,
               std::map<uint64_t, char>* shadow) {
    (void)dev;
    Churn(m, geo_, shadow, /*seed=*/77, /*steps=*/1200);
    ASSERT_TRUE(m->WriteCheckpoint(0, nullptr).ok());
  });
  EXPECT_EQ(recovered_ckpt_->stats().recovery_ckpt_epoch, 1u);
  EXPECT_EQ(recovered_ckpt_->stats().recovery_pages_scanned, 0u);
  ExpectIdenticalState(*recovered_ckpt_, *recovered_full_);
  ExpectShadowReadable(*recovered_ckpt_, geo_, shadow_);
}

TEST_F(CheckpointEquivalenceTest, EquivalenceHoldsAcrossAbortedBatch) {
  RunTwins([&](flash::FlashDevice* dev, OutOfPlaceMapper* m,
               std::map<uint64_t, char>* shadow) {
    Churn(m, geo_, shadow, /*seed=*/55, /*steps=*/400);
    // Deterministic mid-phase-1 abort (same technique as test_atomic.cc):
    // the fault stream lets a few batch pages program, then fails one.
    flash::FaultOptions faults;
    faults.seed = 8;
    faults.program_failure_rate = 0.9;
    dev->SetFaults(faults);
    std::vector<char> data(geo_.page_size, 'n');
    Status s = m->WriteAtomicBatch(
        {{0, data.data()}, {1, data.data()}, {2, data.data()}, {3, data.data()}},
        0, flash::OpOrigin::kHost, 0, nullptr);
    ASSERT_FALSE(s.ok()) << "fault seed no longer aborts the batch";
    dev->SetFaults(flash::FaultOptions{});  // heal
    // A later batch commits (retrying any pending orphan scrub first), so
    // the watermark moves past the aborted id with the orphans gone.
    std::vector<char> b_data(geo_.page_size, 'b');
    ASSERT_TRUE(m->WriteAtomicBatch({{4, b_data.data()}, {5, b_data.data()}},
                                    0, flash::OpOrigin::kHost, 0, nullptr)
                    .ok());
    (*shadow)[4] = 'b';
    (*shadow)[5] = 'b';
    ASSERT_TRUE(m->WriteCheckpoint(0, nullptr).ok());
    Churn(m, geo_, shadow, /*seed=*/66, /*steps=*/120);
  });
  EXPECT_EQ(recovered_ckpt_->stats().recovery_ckpt_epoch, 1u);
  ExpectIdenticalState(*recovered_ckpt_, *recovered_full_,
                       /*version_ahead_ok=*/{0, 1, 2, 3});
  ExpectShadowReadable(*recovered_ckpt_, geo_, shadow_);
  // The aborted batch must not resurrect on either path: every member
  // still reads its last committed (pre-abort or churned) content.
  std::vector<char> buf(geo_.page_size);
  for (uint64_t lpn : {0ull, 1ull, 2ull, 3ull}) {
    if (!recovered_ckpt_->IsMapped(lpn)) continue;
    ASSERT_TRUE(recovered_ckpt_
                    ->Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr)
                    .ok());
    EXPECT_NE(buf[0], 'n') << "aborted batch content resurrected at " << lpn;
  }
}

TEST_F(CheckpointEquivalenceTest, TornCheckpointFallsBackToOlderEpoch) {
  RunTwins([&](flash::FlashDevice* dev, OutOfPlaceMapper* m,
               std::map<uint64_t, char>* shadow) {
    (void)dev;
    Churn(m, geo_, shadow, /*seed=*/11, /*steps=*/900);
    ASSERT_TRUE(m->WriteCheckpoint(0, nullptr).ok());  // epoch 1, valid
    Churn(m, geo_, shadow, /*seed=*/22, /*steps=*/200);
    // Crash mid-checkpoint: epoch 2 writes only 2 payload pages.
    ASSERT_TRUE(m->DebugWriteTornCheckpoint(0, /*max_pages=*/2, nullptr).ok());
  });
  // The torn epoch 2 is detected and discarded; the delta runs from epoch 1
  // and must cover the 200-step tail exactly like the full scan.
  EXPECT_EQ(recovered_ckpt_->stats().recovery_ckpt_epoch, 1u);
  ExpectIdenticalState(*recovered_ckpt_, *recovered_full_);
  ExpectShadowReadable(*recovered_ckpt_, geo_, shadow_);
}

TEST_F(CheckpointEquivalenceTest, AllCheckpointsTornFallsBackToFullScan) {
  RunTwins([&](flash::FlashDevice* dev, OutOfPlaceMapper* m,
               std::map<uint64_t, char>* shadow) {
    (void)dev;
    Churn(m, geo_, shadow, /*seed=*/31, /*steps=*/600);
    ASSERT_TRUE(m->DebugWriteTornCheckpoint(0, 1, nullptr).ok());  // epoch 1
    Churn(m, geo_, shadow, /*seed=*/32, /*steps=*/60);
    ASSERT_TRUE(m->DebugWriteTornCheckpoint(0, 2, nullptr).ok());  // epoch 2
  });
  EXPECT_EQ(recovered_ckpt_->stats().recovery_ckpt_epoch, 0u);  // full scan
  ExpectIdenticalState(*recovered_ckpt_, *recovered_full_);
  ExpectShadowReadable(*recovered_ckpt_, geo_, shadow_);
  // Epochs stay monotonic even though both payloads were torn: the next
  // checkpoint must be epoch 3, not a reuse of 1 or 2.
  ASSERT_TRUE(recovered_ckpt_->WriteCheckpoint(0, nullptr).ok());
  EXPECT_EQ(recovered_ckpt_->checkpoint_epoch(), 3u);
}

TEST(CheckpointTriggerTest, WriteAfterTornRecoveryAvoidsNewestValidSlot) {
  // With 2 slots: valid epoch 1 (slot 1), valid epoch 2 (slot 0), torn
  // epoch 3 (slot 1). Recovery loads epoch 2 but adopts the hint 3, so a
  // naive next epoch 4 would land in slot 0 — erasing the only valid
  // checkpoint while slot 1 still holds garbage. The writer must skip to
  // an epoch whose slot avoids the newest valid image, so that a second
  // crash mid-write still falls back to epoch 2.
  flash::FlashGeometry geo = CkptGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  std::map<uint64_t, char> shadow;
  {
    OutOfPlaceMapper m(&device, AllDies(geo), kLogicalPages, CkptOptions());
    Churn(&m, geo, &shadow, /*seed=*/41, /*steps=*/300);
    ASSERT_TRUE(m.WriteCheckpoint(0, nullptr).ok());              // epoch 1
    ASSERT_TRUE(m.WriteCheckpoint(0, nullptr).ok());              // epoch 2
    ASSERT_TRUE(m.DebugWriteTornCheckpoint(0, 1, nullptr).ok());  // epoch 3
  }  // crash
  SimTime done = 0;
  auto r1 = OutOfPlaceMapper::RecoverFromDevice(&device, AllDies(geo),
                                                kLogicalPages, CkptOptions(),
                                                0, &done);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ((*r1)->stats().recovery_ckpt_epoch, 2u);
  // Crash mid-write of the next checkpoint too...
  ASSERT_TRUE((*r1)->DebugWriteTornCheckpoint(0, 1, nullptr).ok());
  r1->reset();  // crash
  // ...and epoch 2 must still be recoverable: the torn write went to the
  // slot already holding garbage, not to epoch 2's slot.
  auto r2 = OutOfPlaceMapper::RecoverFromDevice(&device, AllDies(geo),
                                                kLogicalPages, CkptOptions(),
                                                0, &done);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ((*r2)->stats().recovery_ckpt_epoch, 2u)
      << "the post-recovery checkpoint write destroyed the newest valid slot";
  EXPECT_TRUE((*r2)->VerifyIntegrity().ok());
  ExpectShadowReadable(**r2, geo, shadow);
}

TEST(CheckpointQuiesceTest, MidVictimTiesResolveLikeFullScan) {
  // Regression for the checkpoint quiesce. This exact configuration
  // (single die, most-worn-first allocation, seed 6, 1089 writes) leaves a
  // half-reclaimed victim at checkpoint time (asserted below) whose
  // already-relocated pages tie on version with their new copies *at a
  // higher physical address* — without the quiesce, a full scan maps the
  // stale victim copy while the checkpoint maps the relocated one, and the
  // two recovery paths disagree on the L2P.
  flash::FlashGeometry geo;
  geo.channels = 1;
  geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 32;
  geo.pages_per_block = 8;
  geo.page_size = 256;
  MapperOptions opts;
  opts.checkpoint_slots = 2;
  opts.gc_low_watermark = 3;
  opts.gc_high_watermark = 5;
  opts.dynamic_wear_leveling = false;
  const uint64_t kPages = 100;
  flash::FlashDevice device_a(geo, flash::FlashTiming{});
  flash::FlashDevice device_b(geo, flash::FlashTiming{});
  auto run = [&](flash::FlashDevice* dev) {
    OutOfPlaceMapper m(dev, {0}, kPages, opts);
    Rng rng(6);
    std::vector<char> buf(geo.page_size, 'x');
    for (int i = 0; i < 1089; i++) {
      buf[0] = static_cast<char>(rng.Below(250) + 1);
      ASSERT_TRUE(m.Write(rng.Below(kPages), 0, flash::OpOrigin::kHost,
                          buf.data(), 0, nullptr).ok());
    }
    // The precondition the quiesce exists for: GC has relocated some of its
    // victim's pages and not yet erased it.
    const OutOfPlaceMapper::GcVictimState victim = m.DebugGcVictim(0);
    ASSERT_NE(victim.block, OutOfPlaceMapper::kNoVictim);
    ASSERT_GT(victim.valid_now, 0u);
    ASSERT_LT(victim.valid_now, victim.valid_at_pick);
    ASSERT_TRUE(m.WriteCheckpoint(0, nullptr).ok());
  };
  run(&device_a);
  run(&device_b);
  SimTime done = 0;
  auto ra = OutOfPlaceMapper::RecoverFromDevice(&device_a, {0}, kPages, opts,
                                                0, &done);
  auto rb = OutOfPlaceMapper::DebugRecoverByFullScan(&device_b, {0}, kPages,
                                                     opts, 0, &done);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ((*ra)->stats().recovery_ckpt_epoch, 1u);
  for (uint64_t lpn = 0; lpn < kPages; lpn++) {
    ASSERT_EQ((*ra)->IsMapped(lpn), (*rb)->IsMapped(lpn)) << "lpn " << lpn;
    if (!(*ra)->IsMapped(lpn)) continue;
    ASSERT_TRUE(*(*ra)->Lookup(lpn) == *(*rb)->Lookup(lpn)) << "lpn " << lpn;
    ASSERT_EQ((*ra)->DebugVersionOf(lpn), (*rb)->DebugVersionOf(lpn))
        << "lpn " << lpn;
  }
  EXPECT_TRUE((*ra)->VerifyIntegrity().ok());
  EXPECT_TRUE((*rb)->VerifyIntegrity().ok());
}

TEST(CheckpointTriggerTest, PeriodicWriteCountTriggerFires) {
  flash::FlashGeometry geo = CkptGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions options = CkptOptions();
  options.checkpoint_interval_writes = 64;
  OutOfPlaceMapper mapper(&device, AllDies(geo), kLogicalPages, options);
  std::vector<char> data(geo.page_size, 'x');
  Rng rng(5);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(mapper.Write(rng.Below(kLogicalPages), 0,
                             flash::OpOrigin::kHost, data.data(), 0, nullptr)
                    .ok());
  }
  EXPECT_EQ(mapper.stats().checkpoints_written, 3u);  // at 64, 128, 192
  EXPECT_EQ(mapper.checkpoint_epoch(), 3u);
  // The freshest epoch is what a crash now recovers from.
  SimTime done = 0;
  auto recovered = OutOfPlaceMapper::RecoverFromDevice(
      &device, AllDies(geo), kLogicalPages, options, 0, &done);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->stats().recovery_ckpt_epoch, 3u);
  EXPECT_TRUE((*recovered)->VerifyIntegrity().ok());
}

TEST(CheckpointTrimTest, TrimsBeforeCheckpointAreDurable) {
  // A full OOB scan resurrects trimmed pages whose flash copies were not
  // yet garbage-collected (non-deterministic TRIM). The checkpointed L2P
  // has the trim applied, and the page's block — untouched since — is
  // never rescanned, so the trim holds after recovery.
  flash::FlashGeometry geo = CkptGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), kLogicalPages, CkptOptions());
  std::vector<char> data(geo.page_size, 'd');
  ASSERT_TRUE(
      mapper.Write(9, 0, flash::OpOrigin::kHost, data.data(), 0, nullptr).ok());
  ASSERT_TRUE(mapper.Trim(9).ok());
  ASSERT_TRUE(mapper.WriteCheckpoint(0, nullptr).ok());
  SimTime done = 0;
  auto recovered = OutOfPlaceMapper::RecoverFromDevice(
      &device, AllDies(geo), kLogicalPages, CkptOptions(), 0, &done);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE((*recovered)->IsMapped(9));
  EXPECT_TRUE((*recovered)->VerifyIntegrity().ok());
}

TEST(CheckpointLayoutTest, ReservedBlocksNeverEnterRotation) {
  // Fill and churn hard; the mapper must never program or erase a reserved
  // checkpoint block on its own (only WriteCheckpoint touches them).
  flash::FlashGeometry geo = CkptGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), kLogicalPages, CkptOptions());
  const uint32_t reserved = mapper.reserved_blocks_per_die();
  ASSERT_GT(reserved, 0u);
  std::map<uint64_t, char> shadow;
  Churn(&mapper, geo, &shadow, 7, 2000);
  ASSERT_TRUE(mapper.ForceGc(0).ok());
  for (flash::DieId die : AllDies(geo)) {
    for (flash::BlockId b = geo.blocks_per_die - reserved;
         b < geo.blocks_per_die; b++) {
      EXPECT_EQ(device.NextProgramPage(die, b), 0u)
          << "mapper programmed reserved block " << b << " on die " << die;
      EXPECT_EQ(device.EraseCount(die, b), 0u);
    }
  }
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

}  // namespace
}  // namespace noftl::ftl
