// Tests for OutOfPlaceMapper: translation correctness, GC behaviour, wear
// leveling, die-set reshaping, and a randomized property test that checks
// the mapper against a shadow model under both victim policies.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "flash/device.h"
#include "ftl/mapping.h"

namespace noftl::ftl {
namespace {

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

class MapperTest : public ::testing::Test {
 protected:
  MapperTest()
      : geo_(TinyGeometry()),
        device_(geo_, flash::FlashTiming{}),
        mapper_(&device_, AllDies(geo_), /*logical_pages=*/256,
                MapperOptions{}) {}

  std::vector<char> Page(char fill) {
    return std::vector<char>(geo_.page_size, fill);
  }

  flash::FlashGeometry geo_;
  flash::FlashDevice device_;
  OutOfPlaceMapper mapper_;
};

TEST_F(MapperTest, CapacityCheckedAgainstReserve) {
  EXPECT_TRUE(mapper_.CheckCapacity().ok());
  // 4 dies x 16 blocks x 8 pages = 512 physical; reserve (4+2)*8*4 = 192.
  OutOfPlaceMapper too_big(&device_, AllDies(geo_), 400, MapperOptions{});
  EXPECT_TRUE(too_big.CheckCapacity().IsNoSpace());
}

TEST_F(MapperTest, ReadUnmappedIsNotFound) {
  EXPECT_TRUE(mapper_.Read(0, 0, flash::OpOrigin::kHost, nullptr, nullptr)
                  .IsNotFound());
  EXPECT_FALSE(mapper_.IsMapped(0));
}

TEST_F(MapperTest, WriteReadRoundTrip) {
  auto data = Page('A');
  SimTime done = 0;
  ASSERT_TRUE(mapper_.Write(7, 0, flash::OpOrigin::kHost, data.data(), 3, &done).ok());
  EXPECT_TRUE(mapper_.IsMapped(7));

  auto buf = Page(0);
  ASSERT_TRUE(mapper_.Read(7, done, flash::OpOrigin::kHost, buf.data(), &done).ok());
  EXPECT_EQ(memcmp(buf.data(), data.data(), buf.size()), 0);

  // Object id reaches the OOB metadata.
  auto addr = mapper_.Lookup(7);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(device_.PeekMetadata(*addr).object_id, 3u);
  EXPECT_EQ(device_.PeekMetadata(*addr).logical_id, 7u);
}

TEST_F(MapperTest, OverwriteInvalidatesOldCopy) {
  auto a = Page('a');
  auto b = Page('b');
  ASSERT_TRUE(mapper_.Write(1, 0, flash::OpOrigin::kHost, a.data(), 0, nullptr).ok());
  const auto first = *mapper_.Lookup(1);
  ASSERT_TRUE(mapper_.Write(1, 0, flash::OpOrigin::kHost, b.data(), 0, nullptr).ok());
  const auto second = *mapper_.Lookup(1);
  EXPECT_FALSE(first == second);
  EXPECT_EQ(mapper_.valid_pages(), 1u);

  auto buf = Page(0);
  ASSERT_TRUE(mapper_.Read(1, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok());
  EXPECT_EQ(buf[0], 'b');
  EXPECT_TRUE(mapper_.VerifyIntegrity().ok());
}

TEST_F(MapperTest, TrimUnmapsAndIsIdempotent) {
  auto a = Page('a');
  ASSERT_TRUE(mapper_.Write(5, 0, flash::OpOrigin::kHost, a.data(), 0, nullptr).ok());
  ASSERT_TRUE(mapper_.Trim(5).ok());
  EXPECT_FALSE(mapper_.IsMapped(5));
  EXPECT_TRUE(mapper_.Read(5, 0, flash::OpOrigin::kHost, nullptr, nullptr).IsNotFound());
  EXPECT_TRUE(mapper_.Trim(5).ok());
  EXPECT_EQ(mapper_.valid_pages(), 0u);
}

TEST_F(MapperTest, OutOfRangeLpnRejected) {
  EXPECT_TRUE(mapper_.Write(9999, 0, flash::OpOrigin::kHost, nullptr, 0, nullptr)
                  .IsOutOfRange());
  EXPECT_TRUE(mapper_.Read(9999, 0, flash::OpOrigin::kHost, nullptr, nullptr)
                  .IsOutOfRange());
  EXPECT_TRUE(mapper_.Trim(9999).IsOutOfRange());
}

TEST_F(MapperTest, WritesStripeAcrossDies) {
  for (uint64_t lpn = 0; lpn < 8; lpn++) {
    ASSERT_TRUE(mapper_.Write(lpn, 0, flash::OpOrigin::kHost, nullptr, 0, nullptr).ok());
  }
  std::map<flash::DieId, int> per_die;
  for (uint64_t lpn = 0; lpn < 8; lpn++) per_die[mapper_.Lookup(lpn)->die]++;
  EXPECT_EQ(per_die.size(), 4u);  // all four dies used
  for (const auto& [die, count] : per_die) EXPECT_EQ(count, 2);
}

TEST_F(MapperTest, WriteDieTieBreakStaysRoundRobin) {
  // All dies idle at issue: the early-exit pick must keep resolving ties
  // in cursor order, i.e. successive writes visit dies round-robin exactly
  // like the full least-busy scan did (placement traces stay stable).
  std::vector<flash::DieId> order;
  for (uint64_t lpn = 0; lpn < 8; lpn++) {
    // A huge issue time keeps every die "idle at issue" for all 8 writes.
    ASSERT_TRUE(mapper_.Write(lpn, 1u << 20, flash::OpOrigin::kHost, nullptr,
                              0, nullptr).ok());
    order.push_back(mapper_.Lookup(lpn)->die);
  }
  const std::vector<flash::DieId> expect = {0, 1, 2, 3, 0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST_F(MapperTest, WriteDiePickSkipsBusyDieAtIssue) {
  // Make die 0 (the cursor die) busy well past the issue time; the pick
  // must fall through to die 1, the first die idle at issue — the same die
  // the full least-busy scan would have chosen.
  ASSERT_TRUE(device_
                  .ReadPage({0, 0, 0}, /*issue=*/10000,
                            flash::OpOrigin::kMeta, nullptr, nullptr)
                  .ok());
  ASSERT_GT(device_.DieBusyUntil(0), 0u);
  ASSERT_TRUE(
      mapper_.Write(0, 0, flash::OpOrigin::kHost, nullptr, 0, nullptr).ok());
  EXPECT_EQ(mapper_.Lookup(0)->die, 1u);
}

TEST(MapperWriteDieTest, WriteDiePickSkipsDieThatCannotTakeTheWrite) {
  // Die 1 is booked far into the future, so the least-busy pick keeps
  // choosing die 0. Once die 0 is full of valid pages (no GC victim, last
  // free block reserved for GC), the pick must move to die 1 instead of
  // failing the write with NoSpace.
  const flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, {0, 1}, /*logical_pages=*/160,
                          MapperOptions{});
  ASSERT_TRUE(mapper.CheckCapacity().ok());
  ASSERT_TRUE(device
                  .ReadPage({1, 0, 0}, /*issue=*/1'000'000'000,
                            flash::OpOrigin::kMeta, nullptr, nullptr)
                  .ok());
  // More distinct pages than die 0 holds.
  ASSERT_GT(160u, static_cast<uint64_t>(geo.blocks_per_die) *
                      geo.pages_per_block);
  for (uint64_t lpn = 0; lpn < 160; lpn++) {
    ASSERT_TRUE(
        mapper.Write(lpn, 0, flash::OpOrigin::kHost, nullptr, 0, nullptr).ok())
        << "lpn " << lpn;
  }
  uint64_t on_die1 = 0;
  for (uint64_t lpn = 0; lpn < 160; lpn++) {
    if (mapper.Lookup(lpn)->die == 1) on_die1++;
  }
  EXPECT_GT(on_die1, 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST_F(MapperTest, GcReclaimsInvalidatedSpace) {
  // Overwrite a small working set many times: GC must kick in and the
  // mapper must stay consistent.
  auto data = Page('g');
  for (int round = 0; round < 60; round++) {
    for (uint64_t lpn = 0; lpn < 32; lpn++) {
      ASSERT_TRUE(
          mapper_.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0, nullptr).ok())
          << "round " << round << " lpn " << lpn;
    }
  }
  EXPECT_GT(mapper_.stats().gc_erases, 0u);
  EXPECT_EQ(mapper_.valid_pages(), 32u);
  EXPECT_TRUE(mapper_.VerifyIntegrity().ok());
}

TEST_F(MapperTest, GcPreservesData) {
  // Fill the whole logical space, then rewrite random pages: GC victims are
  // then mixed-validity blocks, so live pages must be relocated (copyback)
  // and must survive bit-exact.
  std::vector<std::vector<char>> contents;
  for (uint64_t lpn = 0; lpn < 256; lpn++) {
    contents.push_back(Page(static_cast<char>(lpn % 251)));
    ASSERT_TRUE(mapper_.Write(lpn, 0, flash::OpOrigin::kHost,
                              contents[lpn].data(), 0, nullptr).ok());
  }
  Rng rng(77);
  for (int step = 0; step < 3000; step++) {
    const uint64_t lpn = rng.Below(256);
    contents[lpn] = Page(static_cast<char>(rng.Below(256)));
    ASSERT_TRUE(mapper_.Write(lpn, 0, flash::OpOrigin::kHost,
                              contents[lpn].data(), 0, nullptr).ok());
  }
  ASSERT_GT(mapper_.stats().gc_copybacks, 0u);  // live pages were relocated
  for (uint64_t lpn = 0; lpn < 256; lpn++) {
    auto buf = Page(0);
    ASSERT_TRUE(mapper_.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok());
    EXPECT_EQ(memcmp(buf.data(), contents[lpn].data(), buf.size()), 0)
        << "lpn " << lpn;
  }
}

TEST_F(MapperTest, ForceGcRaisesFreePages) {
  auto data = Page('f');
  for (int round = 0; round < 20; round++) {
    for (uint64_t lpn = 0; lpn < 16; lpn++) {
      ASSERT_TRUE(
          mapper_.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0, nullptr).ok());
    }
  }
  ASSERT_TRUE(mapper_.ForceGc(0).ok());
  // After a full GC pass every die has at least the high watermark free.
  const auto& geo = device_.geometry();
  EXPECT_GE(mapper_.FreePages(),
            4ull * MapperOptions{}.gc_high_watermark * geo.pages_per_block);
  EXPECT_TRUE(mapper_.VerifyIntegrity().ok());
}

TEST_F(MapperTest, DynamicWearLevelingPrefersLeastWornBlocks) {
  // After heavy churn the erase counts across blocks of a die should stay
  // within a modest band (dynamic WL allocates least-worn first).
  auto data = Page('w');
  for (int round = 0; round < 200; round++) {
    for (uint64_t lpn = 0; lpn < 24; lpn++) {
      ASSERT_TRUE(
          mapper_.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0, nullptr).ok());
    }
  }
  uint32_t min_e = 0;
  uint32_t max_e = 0;
  double avg = 0;
  device_.WearSummary(&min_e, &max_e, &avg);
  EXPECT_GT(max_e, 0u);
  EXPECT_LE(max_e - min_e, max_e);  // sanity
  // Every block should have been erased at least once under even allocation.
  EXPECT_GT(avg, 0.5);
}

TEST_F(MapperTest, RemoveDieMigratesData) {
  std::vector<std::vector<char>> contents;
  for (uint64_t lpn = 0; lpn < 40; lpn++) {
    contents.push_back(Page(static_cast<char>(lpn)));
    ASSERT_TRUE(mapper_.Write(lpn, 0, flash::OpOrigin::kHost,
                              contents[lpn].data(), 9, nullptr).ok());
  }
  ASSERT_TRUE(mapper_.RemoveDie(2, 0).ok());
  EXPECT_EQ(mapper_.die_count(), 3u);
  for (uint64_t lpn = 0; lpn < 40; lpn++) {
    auto addr = mapper_.Lookup(lpn);
    ASSERT_TRUE(addr.ok());
    EXPECT_NE(addr->die, 2u);
    auto buf = Page(0);
    ASSERT_TRUE(mapper_.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok());
    EXPECT_EQ(memcmp(buf.data(), contents[lpn].data(), buf.size()), 0);
    // Object ids survive the migration.
    EXPECT_EQ(device_.PeekMetadata(*addr).object_id, 9u);
  }
  EXPECT_TRUE(mapper_.VerifyIntegrity().ok());
  EXPECT_GT(mapper_.stats().wl_migrated_pages, 0u);

  // The removed die can rejoin.
  ASSERT_TRUE(mapper_.AddDie(2).ok());
  EXPECT_EQ(mapper_.die_count(), 4u);
  EXPECT_TRUE(mapper_.VerifyIntegrity().ok());
}

TEST_F(MapperTest, RemoveOnlyDieRefused) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper one_die(&device, {0}, 32, MapperOptions{});
  EXPECT_TRUE(one_die.RemoveDie(0, 0).IsBusy());
}

TEST_F(MapperTest, AddExistingDieRejected) {
  EXPECT_TRUE(mapper_.AddDie(1).IsAlreadyExists());
}

TEST_F(MapperTest, RemoveDieRefusedWhenRemainingTooFull) {
  // Two dies filled to the usable limit: draining one cannot fit into the
  // other (its free space is all GC reserve).
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper tight(&device, {0, 1}, /*logical_pages=*/160,
                         MapperOptions{});
  ASSERT_TRUE(tight.CheckCapacity().ok());
  std::vector<char> data(geo.page_size, 'x');
  for (uint64_t lpn = 0; lpn < 160; lpn++) {
    ASSERT_TRUE(
        tight.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0, nullptr).ok());
  }
  Status s = tight.RemoveDie(0, 0);
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_TRUE(tight.VerifyIntegrity().ok());
}

// --- Victim-index internals: buckets vs the linear-scan baseline -----

// Churn random writes/trims/GC and cross-check the packed bitmaps, bucket
// lists and free pools after every N ops (VerifyIntegrity validates all of
// them against the l2p map and the device).
TEST(MapperBucketTest, ChurnKeepsBucketsAndBitmapsConsistent) {
  for (VictimPolicy policy : {VictimPolicy::kGreedy,
                              VictimPolicy::kCostBenefit}) {
    flash::FlashGeometry geo = TinyGeometry(24, 8);
    flash::FlashDevice device(geo, flash::FlashTiming{});
    MapperOptions options;
    options.victim_policy = policy;
    OutOfPlaceMapper mapper(&device, AllDies(geo), /*logical_pages=*/200,
                            options);
    Rng rng(911 + static_cast<uint64_t>(policy));
    SimTime now = 0;
    for (int step = 0; step < 3000; step++) {
      now += 50;
      const uint64_t lpn = rng.Below(200);
      const int op = static_cast<int>(rng.Below(10));
      if (op < 7) {
        ASSERT_TRUE(mapper.Write(lpn, now, flash::OpOrigin::kHost, nullptr, 0,
                                 nullptr).ok())
            << "step " << step;
      } else if (op < 9) {
        ASSERT_TRUE(mapper.Trim(lpn).ok());
      } else {
        ASSERT_TRUE(mapper.ForceGc(now).ok());
      }
      if (step % 100 == 0) {
        ASSERT_TRUE(mapper.VerifyIntegrity().ok()) << "step " << step;
      }
    }
    ASSERT_TRUE(mapper.VerifyIntegrity().ok());
  }
}

// Regression: on identical randomized states, the O(1) bucket pick must
// choose a victim with the same (minimal) valid count as the full scan.
TEST(MapperBucketTest, GreedyBucketPickMatchesScanChoice) {
  flash::FlashGeometry geo = TinyGeometry(24, 8);
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), /*logical_pages=*/220,
                          MapperOptions{});
  Rng rng(4242);
  SimTime now = 0;
  int compared = 0;
  for (int step = 0; step < 4000; step++) {
    now += 50;
    const uint64_t lpn = rng.Below(220);
    if (rng.Below(10) < 8) {
      ASSERT_TRUE(mapper.Write(lpn, now, flash::OpOrigin::kHost, nullptr, 0,
                               nullptr).ok());
    } else {
      ASSERT_TRUE(mapper.Trim(lpn).ok());
    }
    if (step % 50 != 0) continue;
    for (flash::DieId die : mapper.dies()) {
      const uint32_t scan =
          mapper.DebugPickVictim(die, now, VictimIndex::kLinearScan);
      const uint32_t bucket =
          mapper.DebugPickVictim(die, now, VictimIndex::kBuckets);
      ASSERT_EQ(scan == OutOfPlaceMapper::kNoVictim,
                bucket == OutOfPlaceMapper::kNoVictim)
          << "step " << step << " die " << die;
      if (scan == OutOfPlaceMapper::kNoVictim) continue;
      EXPECT_EQ(mapper.BlockValidCount(die, scan),
                mapper.BlockValidCount(die, bucket))
          << "step " << step << " die " << die;
      compared++;
    }
  }
  EXPECT_GT(compared, 0);  // the churn actually produced candidates
}

// Cost-benefit scoring: a fully-invalid block (u == 0) must always win, even
// against a nearly-empty block whose age term is astronomically large. (The
// old epsilon-based score could lose this ordering once the age gap crossed
// ~1e9.)
TEST(MapperBucketTest, CostBenefitFullyInvalidBlockAlwaysWins) {
  flash::FlashGeometry geo = TinyGeometry(16, 8);
  geo.channels = 1;
  geo.dies_per_channel = 1;
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions options;
  options.victim_policy = VictimPolicy::kCostBenefit;
  OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/64, options);

  // Block A: filled at t=0, then all but one page invalidated -> u = 1/8
  // with an enormous age by the time we pick.
  for (uint64_t lpn = 0; lpn < 8; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, nullptr, 0,
                             nullptr).ok());
  }
  const SimTime late = 2'000'000'000'000ull;  // ~2e12 us later
  // 7 overwrites + 1 filler land exactly on the next block and fill it.
  for (uint64_t lpn = 1; lpn < 8; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, late, flash::OpOrigin::kHost, nullptr, 0,
                             nullptr).ok());
  }
  ASSERT_TRUE(mapper.Write(16, late, flash::OpOrigin::kHost, nullptr, 0,
                           nullptr).ok());
  // Block B: eight fresh pages written at `late` (one whole block), then all
  // invalidated -> u = 0 but tiny age.
  for (uint64_t lpn = 17; lpn < 25; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, late, flash::OpOrigin::kHost, nullptr, 0,
                             nullptr).ok());
  }
  for (uint64_t lpn = 17; lpn < 25; lpn++) {
    ASSERT_TRUE(mapper.Trim(lpn).ok());
  }
  // Roll the append point forward so block B registers as a GC candidate.
  ASSERT_TRUE(mapper.Write(25, late, flash::OpOrigin::kHost, nullptr, 0,
                           nullptr).ok());
  ASSERT_TRUE(mapper.VerifyIntegrity().ok());

  for (VictimIndex index : {VictimIndex::kBuckets, VictimIndex::kLinearScan}) {
    const uint32_t pick = mapper.DebugPickVictim(0, late + 1000, index);
    ASSERT_NE(pick, OutOfPlaceMapper::kNoVictim);
    EXPECT_EQ(mapper.BlockValidCount(0, pick), 0u)
        << "index " << static_cast<int>(index)
        << " picked a partially-valid victim over a fully-invalid one";
  }
}

// Emergency GC inside WriteAtomicBatch phase 1 must not erase blocks
// holding the batch's own not-yet-mapped pages (they look like pure garbage
// to the victim index — u == 0 — and would otherwise be the preferred pick).
TEST(MapperBucketTest, AtomicBatchSurvivesEmergencyGcDuringPhase1) {
  flash::FlashGeometry geo = TinyGeometry(16, 8);
  geo.channels = 1;
  geo.dies_per_channel = 1;
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/80, MapperOptions{});

  std::vector<char> a(geo.page_size, 'a');
  for (uint64_t lpn = 0; lpn < 80; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, a.data(), 0,
                             nullptr).ok());
  }
  // Churn overwrites until the die sits at the GC watermark: the next big
  // batch then has to run emergency reclamation mid-phase-1.
  Rng rng(31);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(mapper.Write(rng.Below(80), 0, flash::OpOrigin::kHost,
                             a.data(), 0, nullptr).ok());
  }

  // A 24-page batch spans three blocks on the single die; no background GC
  // runs between its programs.
  std::vector<std::vector<char>> bufs;
  std::vector<OutOfPlaceMapper::BatchPage> batch;
  for (uint64_t lpn = 0; lpn < 24; lpn++) {
    bufs.emplace_back(geo.page_size, 'b');
    batch.push_back({lpn, bufs.back().data()});
  }
  ASSERT_TRUE(mapper.WriteAtomicBatch(batch, 0, flash::OpOrigin::kHost, 0,
                                      nullptr).ok());
  ASSERT_TRUE(mapper.VerifyIntegrity().ok());

  std::vector<char> buf(geo.page_size);
  for (uint64_t lpn = 0; lpn < 80; lpn++) {
    ASSERT_TRUE(mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(),
                            nullptr).ok());
    EXPECT_EQ(buf[0], lpn < 24 ? 'b' : 'a') << "lpn " << lpn;
  }
}

// --- Foreground GC pace ----------------------------------------------

// One die of 32 blocks x 8 pages, low watermark 4. Sequential writes of
// lpns [0, prefill) fill whole blocks with valid data (no victim exists, so
// GC finds nothing to do however low the die runs); trimming the first
// `trimmed` lpns then leaves their block the only candidate, with
// v = 8 - trimmed valid pages. Returns the copybacks of the next host write
// and checks that it picked exactly that victim.
uint64_t CopybacksOfNextWrite(uint64_t prefill, uint32_t trimmed) {
  flash::FlashGeometry geo = TinyGeometry(32, 8);
  geo.channels = 1;
  geo.dies_per_channel = 1;
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions options;
  options.gc_low_watermark = 4;
  options.gc_high_watermark = 6;
  OutOfPlaceMapper mapper(&device, {0}, /*logical_pages=*/256, options);
  std::vector<char> data(geo.page_size, 'p');
  for (uint64_t lpn = 0; lpn < prefill; lpn++) {
    EXPECT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  EXPECT_EQ(mapper.stats().gc_runs, 0u);
  for (uint64_t lpn = 0; lpn < trimmed; lpn++) {
    EXPECT_TRUE(mapper.Trim(lpn).ok());
  }
  const uint64_t before = mapper.stats().gc_copybacks;
  EXPECT_TRUE(mapper.Write(prefill, 0, flash::OpOrigin::kHost, data.data(), 0,
                           nullptr).ok());
  EXPECT_EQ(mapper.stats().gc_runs, 1u);
  const uint64_t moved = mapper.stats().gc_copybacks - before;
  const OutOfPlaceMapper::GcVictimState victim = mapper.DebugGcVictim(0);
  if (victim.block != OutOfPlaceMapper::kNoVictim) {
    EXPECT_EQ(victim.valid_at_pick, 8 - trimmed);
    EXPECT_EQ(victim.valid_now, 8 - trimmed - moved);
  }
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
  return moved;
}

TEST(MapperGcPaceTest, RelocatesVictimRatePerHostWrite) {
  // 216 prefilled pages: the next write opens the die's 28th block, leaving
  // 4 free blocks — at the low watermark, not below it. The pace is
  // ceil(v / (8 - v)).
  EXPECT_EQ(CopybacksOfNextWrite(216, /*trimmed=*/4), 1u);  // v = 4
  EXPECT_EQ(CopybacksOfNextWrite(216, /*trimmed=*/2), 3u);  // v = 6
  EXPECT_EQ(CopybacksOfNextWrite(216, /*trimmed=*/5), 1u);  // v = 3
}

TEST(MapperGcPaceTest, PaceDoublesBelowLowWatermark) {
  // 225 prefilled pages: 3 free blocks, one below the watermark.
  EXPECT_EQ(CopybacksOfNextWrite(225, /*trimmed=*/4), 2u);  // v = 4
  EXPECT_EQ(CopybacksOfNextWrite(225, /*trimmed=*/2), 6u);  // v = 6
}

// --- Property test: shadow-model comparison across policies ----------

struct PropertyParam {
  VictimPolicy policy;
  uint64_t logical_pages;
  const char* name;
};

class MapperPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(MapperPropertyTest, RandomOpsMatchShadowModel) {
  const PropertyParam param = GetParam();
  flash::FlashGeometry geo = TinyGeometry(24, 8);
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions options;
  options.victim_policy = param.policy;
  OutOfPlaceMapper mapper(&device, AllDies(geo), param.logical_pages, options);
  ASSERT_TRUE(mapper.CheckCapacity().ok());

  std::map<uint64_t, char> shadow;
  Rng rng(param.logical_pages * 31 + static_cast<uint64_t>(param.policy));
  std::vector<char> buf(geo.page_size);

  for (int step = 0; step < 4000; step++) {
    const uint64_t lpn = rng.Below(param.logical_pages);
    const int op = static_cast<int>(rng.Below(10));
    if (op < 6) {  // write
      const char fill = static_cast<char>(rng.Below(256));
      std::vector<char> data(geo.page_size, fill);
      ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                               nullptr).ok())
          << "step " << step;
      shadow[lpn] = fill;
    } else if (op < 8) {  // read
      Status s = mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
      if (shadow.count(lpn)) {
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(buf[0], shadow[lpn]) << "step " << step;
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {  // trim
      ASSERT_TRUE(mapper.Trim(lpn).ok());
      shadow.erase(lpn);
    }
    if (step % 500 == 0) {
      ASSERT_TRUE(mapper.VerifyIntegrity().ok()) << "step " << step;
      ASSERT_EQ(mapper.valid_pages(), shadow.size());
    }
  }
  ASSERT_TRUE(mapper.VerifyIntegrity().ok());
  ASSERT_EQ(mapper.valid_pages(), shadow.size());
  for (const auto& [lpn, fill] : shadow) {
    ASSERT_TRUE(mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok());
    ASSERT_EQ(buf[0], fill);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MapperPropertyTest,
    ::testing::Values(PropertyParam{VictimPolicy::kGreedy, 64, "greedy_loose"},
                      PropertyParam{VictimPolicy::kGreedy, 220, "greedy_tight"},
                      PropertyParam{VictimPolicy::kCostBenefit, 64, "cb_loose"},
                      PropertyParam{VictimPolicy::kCostBenefit, 220, "cb_tight"}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace noftl::ftl
