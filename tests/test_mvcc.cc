// Flash-native MVCC: the mapper's out-of-place copies as a version store.
//
// Pins the core contract of mvcc/ + the mapper's retention logic:
//   * a snapshot read returns the page exactly as of the snapshot sequence,
//     no matter how many supersedes, trims, GC relocations or victim erases
//     happen after it was opened (the GC-vs-snapshot races);
//   * releasing the last snapshot makes every retained copy garbage again —
//     the stack returns to the free-space baseline of a never-snapshotted
//     twin running the identical workload;
//   * the manager's leak check and the mapper's VerifyIntegrity hold at
//     every step;
//   * incremental checkpoints (dirty-lpn deltas over a full base) recover
//     byte-identically, and a torn delta falls back to the older epoch.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "flash/device.h"
#include "ftl/mapping.h"
#include "mvcc/snapshot_manager.h"

namespace noftl::mvcc {
namespace {

using flash::OpOrigin;
using ftl::MapperOptions;
using ftl::OutOfPlaceMapper;

flash::FlashGeometry TinyGeometry() {
  flash::FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 16;
  geo.pages_per_block = 8;
  geo.page_size = 256;
  return geo;
}

std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

/// One device + mapper wired to its own SnapshotManager.
struct Stack {
  explicit Stack(uint64_t logical_pages = 128,
                 MapperOptions base = MapperOptions{},
                 bool wire_snapshots = true)
      : geo(TinyGeometry()), device(geo, flash::FlashTiming{}) {
    MapperOptions options = base;
    if (wire_snapshots) options.snapshots = snapshots.horizon();
    mapper = std::make_unique<OutOfPlaceMapper>(&device, AllDies(geo),
                                                logical_pages, options);
    if (wire_snapshots) snapshots.RegisterMapper(mapper.get());
  }
  ~Stack() {
    if (mapper != nullptr) snapshots.UnregisterMapper(mapper.get());
  }

  std::vector<char> Page(uint64_t lpn, uint32_t round) {
    std::vector<char> data(geo.page_size);
    for (size_t i = 0; i < data.size(); i++) {
      data[i] = static_cast<char>((lpn * 31 + round * 7 + i) & 0xFF);
    }
    return data;
  }

  void WriteRound(uint64_t pages, uint32_t round) {
    for (uint64_t lpn = 0; lpn < pages; lpn++) {
      auto data = Page(lpn, round);
      ASSERT_TRUE(mapper
                      ->Write(lpn, now, OpOrigin::kHost, data.data(),
                              /*object_id=*/1, &now)
                      .ok());
    }
  }

  /// Full-space digest as of `read_seq` (0 = latest): lpn -> page bytes,
  /// absent when NotFound at that sequence.
  std::map<uint64_t, std::vector<char>> Digest(uint64_t read_seq) {
    std::map<uint64_t, std::vector<char>> out;
    for (uint64_t lpn = 0; lpn < mapper->logical_pages(); lpn++) {
      std::vector<char> data(geo.page_size);
      Status s = mapper->Read(lpn, now, OpOrigin::kHost, data.data(), &now,
                              read_seq);
      if (s.IsNotFound()) continue;
      EXPECT_TRUE(s.ok()) << "lpn " << lpn << ": " << s.ToString();
      if (s.ok()) out.emplace(lpn, std::move(data));
    }
    return out;
  }

  flash::FlashGeometry geo;
  flash::FlashDevice device;
  SnapshotManager snapshots;
  std::unique_ptr<OutOfPlaceMapper> mapper;
  SimTime now = 0;
};

TEST(Mvcc, SnapshotReadSeesSupersededCopy) {
  Stack st;
  st.WriteRound(16, /*round=*/1);
  const uint64_t snap = st.snapshots.Open();
  st.WriteRound(16, /*round=*/2);

  EXPECT_EQ(st.mapper->retained_versions(), 16u);
  for (uint64_t lpn = 0; lpn < 16; lpn++) {
    std::vector<char> data(st.geo.page_size);
    ASSERT_TRUE(st.mapper
                    ->Read(lpn, st.now, OpOrigin::kHost, data.data(), &st.now,
                           snap)
                    .ok());
    EXPECT_EQ(data, st.Page(lpn, 1)) << "snapshot read, lpn " << lpn;
    ASSERT_TRUE(st.mapper
                    ->Read(lpn, st.now, OpOrigin::kHost, data.data(), &st.now)
                    .ok());
    EXPECT_EQ(data, st.Page(lpn, 2)) << "latest read, lpn " << lpn;
  }
  EXPECT_GE(st.mapper->stats().snapshot_reads.load(), 16u);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
  EXPECT_TRUE(st.snapshots.Verify().ok());

  st.snapshots.Release(snap);
  EXPECT_EQ(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
  EXPECT_TRUE(st.snapshots.Verify().ok());
}

TEST(Mvcc, NoSnapshotNoRetention) {
  // Wired but never opened: supersedes invalidate exactly as without MVCC.
  Stack st;
  st.WriteRound(32, 1);
  st.WriteRound(32, 2);
  EXPECT_EQ(st.mapper->retained_versions(), 0u);
  EXPECT_EQ(st.mapper->stats().versions_retained.load(), 0u);
  // Latest reads are untouched by the wired-but-idle horizon.
  std::vector<char> data(st.geo.page_size);
  ASSERT_TRUE(
      st.mapper->Read(3, st.now, OpOrigin::kHost, data.data(), &st.now).ok());
  EXPECT_EQ(data, st.Page(3, 2));
}

TEST(Mvcc, SnapshotUnaffectedByGcVictimErase) {
  Stack st(/*logical_pages=*/96);
  st.WriteRound(96, 1);
  const uint64_t snap = st.snapshots.Open();

  // Churn: supersede everything twice — on this tiny geometry that forces
  // GC to relocate and erase victims that hold both live pages and copies
  // retained for the snapshot.
  st.WriteRound(96, 2);
  st.WriteRound(96, 3);
  auto before = st.Digest(snap);
  ASSERT_EQ(before.size(), 96u);

  ASSERT_TRUE(st.mapper->ForceGc(st.now).ok());
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
  auto after = st.Digest(snap);

  // Byte-identical before/after the victim erases: GC relocated, never
  // discarded, every retained version the snapshot can read.
  EXPECT_EQ(before, after);
  for (uint64_t lpn = 0; lpn < 96; lpn++) {
    ASSERT_NE(after.find(lpn), after.end());
    EXPECT_EQ(after[lpn], st.Page(lpn, 1)) << "lpn " << lpn;
  }

  // Latest reads still see round 3.
  auto latest = st.Digest(0);
  for (uint64_t lpn = 0; lpn < 96; lpn++) {
    EXPECT_EQ(latest[lpn], st.Page(lpn, 3)) << "lpn " << lpn;
  }
  st.snapshots.Release(snap);
  EXPECT_EQ(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
}

TEST(Mvcc, ReleaseReclaimsToNeverSnapshottedBaseline) {
  // Twin stacks, identical workload; only `a` opens (and releases) a
  // snapshot across the overwrite phase. After the release and one GC
  // sweep, the snapshot must have cost nothing that stays: same live
  // pages, and a free-page level at the twin's baseline.
  Stack a(/*logical_pages=*/96);
  Stack b(/*logical_pages=*/96);
  a.WriteRound(96, 1);
  b.WriteRound(96, 1);
  const uint64_t snap = a.snapshots.Open();
  a.WriteRound(96, 2);
  b.WriteRound(96, 2);
  EXPECT_GT(a.mapper->retained_versions(), 0u);
  a.snapshots.Release(snap);
  EXPECT_EQ(a.mapper->retained_versions(), 0u);
  EXPECT_GT(a.mapper->stats().versions_reclaimed.load(), 0u);

  ASSERT_TRUE(a.mapper->ForceGc(a.now).ok());
  ASSERT_TRUE(b.mapper->ForceGc(b.now).ok());
  EXPECT_EQ(a.mapper->valid_pages(), b.mapper->valid_pages());
  EXPECT_EQ(a.mapper->FreePages(), b.mapper->FreePages());
  EXPECT_EQ(a.Digest(0), b.Digest(0));
  EXPECT_TRUE(a.mapper->VerifyIntegrity().ok());
}

TEST(Mvcc, TrimKeepsSnapshotCopyAndHidesFromLaterSnapshots) {
  Stack st;
  st.WriteRound(8, 1);
  const uint64_t before_trim = st.snapshots.Open();
  ASSERT_TRUE(st.mapper->Trim(5).ok());
  const uint64_t after_trim = st.snapshots.Open();

  // The pre-trim snapshot still reads the page; latest and the post-trim
  // snapshot see it gone.
  std::vector<char> data(st.geo.page_size);
  ASSERT_TRUE(st.mapper
                  ->Read(5, st.now, OpOrigin::kHost, data.data(), &st.now,
                         before_trim)
                  .ok());
  EXPECT_EQ(data, st.Page(5, 1));
  EXPECT_TRUE(st.mapper->Read(5, st.now, OpOrigin::kHost, data.data(), &st.now)
                  .IsNotFound());
  EXPECT_TRUE(st.mapper
                  ->Read(5, st.now, OpOrigin::kHost, data.data(), &st.now,
                         after_trim)
                  .IsNotFound());

  st.snapshots.Release(before_trim);
  st.snapshots.Release(after_trim);
  EXPECT_EQ(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.snapshots.Verify().ok());
}

TEST(Mvcc, AtomicBatchIsAtomicUnderSnapshots) {
  Stack st;
  std::vector<std::vector<char>> v1, v2;
  std::vector<OutOfPlaceMapper::BatchPage> p1, p2;
  for (uint64_t lpn = 10; lpn < 14; lpn++) {
    v1.push_back(st.Page(lpn, 1));
    v2.push_back(st.Page(lpn, 2));
  }
  for (size_t i = 0; i < 4; i++) {
    p1.push_back({10 + i, v1[i].data()});
    p2.push_back({10 + i, v2[i].data()});
  }
  ASSERT_TRUE(
      st.mapper->WriteAtomicBatch(p1, st.now, OpOrigin::kHost, 1, &st.now)
          .ok());
  const uint64_t snap = st.snapshots.Open();
  ASSERT_TRUE(
      st.mapper->WriteAtomicBatch(p2, st.now, OpOrigin::kHost, 1, &st.now)
          .ok());

  // The superseding batch commits at one sequence: the snapshot sees all
  // of v1, never a v1/v2 mix.
  for (size_t i = 0; i < 4; i++) {
    std::vector<char> data(st.geo.page_size);
    ASSERT_TRUE(st.mapper
                    ->Read(10 + i, st.now, OpOrigin::kHost, data.data(),
                           &st.now, snap)
                    .ok());
    EXPECT_EQ(data, v1[i]) << "lpn " << 10 + i;
  }
  st.snapshots.Release(snap);
}

TEST(Mvcc, ManagerLeakCheckAndLiveWindow) {
  Stack st;
  st.WriteRound(4, 1);
  EXPECT_TRUE(st.snapshots.Verify().ok());
  const uint64_t s1 = st.snapshots.Open();
  const uint64_t s2 = st.snapshots.Open();
  EXPECT_GT(s2, s1);
  EXPECT_EQ(st.snapshots.live_count(), 2u);
  EXPECT_TRUE(st.snapshots.Verify().ok());

  st.WriteRound(4, 2);
  st.snapshots.Release(s1);
  EXPECT_EQ(st.snapshots.live_count(), 1u);
  // s2 still pins the round-1 copies (they predate s2).
  EXPECT_GT(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.snapshots.Verify().ok());

  st.snapshots.Release(s2);
  EXPECT_EQ(st.snapshots.live_count(), 0u);
  EXPECT_EQ(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.snapshots.Verify().ok());
  // Releasing an unknown handle is ignored.
  st.snapshots.Release(s2);
  EXPECT_TRUE(st.snapshots.Verify().ok());
}

TEST(Mvcc, VerifyIntegrityCatchesHorizonViolation) {
  // The mapper-side leak check: with no live snapshot, VerifyIntegrity
  // must flag any retained version (nothing may outlive the horizon).
  Stack st;
  st.WriteRound(8, 1);
  const uint64_t snap = st.snapshots.Open();
  st.WriteRound(8, 2);
  ASSERT_GT(st.mapper->retained_versions(), 0u);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
  st.snapshots.Release(snap);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
}

// --- Incremental checkpoints -------------------------------------------

MapperOptions CkptOptions() {
  MapperOptions options;
  options.checkpoint_slots = 4;
  return options;
}

TEST(MvccCheckpoint, IncrementalRoundTrip) {
  Stack st(/*logical_pages=*/96, CkptOptions(), /*wire_snapshots=*/false);
  st.WriteRound(96, 1);
  // First checkpoint: no base exists yet, must be a full image.
  ASSERT_TRUE(st.mapper->WriteCheckpoint(st.now, &st.now).ok());
  EXPECT_EQ(st.mapper->stats().checkpoints_written.load(), 1u);
  EXPECT_EQ(st.mapper->stats().ckpt_incr_written.load(), 0u);
  const uint64_t full_bytes = st.mapper->stats().ckpt_bytes_full.load();
  ASSERT_GT(full_bytes, 0u);

  // Dirty a handful of lpns; the next checkpoint rides the delta path.
  for (uint64_t lpn = 10; lpn < 14; lpn++) {
    auto data = st.Page(lpn, 2);
    ASSERT_TRUE(
        st.mapper->Write(lpn, st.now, OpOrigin::kHost, data.data(), 1, &st.now)
            .ok());
  }
  ASSERT_TRUE(st.mapper->WriteCheckpoint(st.now, &st.now).ok());
  EXPECT_EQ(st.mapper->stats().checkpoints_written.load(), 2u);
  EXPECT_EQ(st.mapper->stats().ckpt_incr_written.load(), 1u);
  const uint64_t incr_bytes = st.mapper->stats().ckpt_bytes_incr.load();
  ASSERT_GT(incr_bytes, 0u);
  // The delta must be much smaller than the full image (4/96 lpns dirty).
  EXPECT_LE(incr_bytes * 4, full_bytes);

  // Recover on a fresh mapper: the chain (incremental -> full base)
  // resolves to the exact pre-crash state.
  const uint64_t epoch = st.mapper->checkpoint_epoch();
  auto expected = st.Digest(0);
  st.snapshots.UnregisterMapper(st.mapper.get());
  st.mapper.reset();
  SimTime done = 0;
  auto recovered = OutOfPlaceMapper::RecoverFromDevice(
      &st.device, AllDies(st.geo), 96, CkptOptions(), st.now, &done);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  st.mapper = std::move(*recovered);
  st.now = done;
  EXPECT_EQ(st.mapper->stats().recovery_ckpt_epoch.load(), epoch);
  EXPECT_EQ(st.Digest(0), expected);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
}

TEST(MvccCheckpoint, TornIncrementalFallsBackToOlderEpoch) {
  Stack st(/*logical_pages=*/96, CkptOptions(), /*wire_snapshots=*/false);
  st.WriteRound(96, 1);
  ASSERT_TRUE(st.mapper->WriteCheckpoint(st.now, &st.now).ok());
  // Enough dirty lpns that the delta image spans several payload pages
  // (tearing after one page is then guaranteed to truncate it) while
  // staying under the incremental-promotion threshold.
  for (uint64_t lpn = 20; lpn < 50; lpn++) {
    auto data = st.Page(lpn, 2);
    ASSERT_TRUE(
        st.mapper->Write(lpn, st.now, OpOrigin::kHost, data.data(), 1, &st.now)
            .ok());
  }
  // Crash mid-delta: the torn slot must not validate; recovery falls back
  // to the full epoch and the delta scan replays the round-2 writes.
  ASSERT_TRUE(
      st.mapper->DebugWriteTornCheckpoint(st.now, /*max_pages=*/1, &st.now)
          .ok());
  auto expected = st.Digest(0);
  st.mapper.reset();
  SimTime done = 0;
  auto recovered = OutOfPlaceMapper::RecoverFromDevice(
      &st.device, AllDies(st.geo), 96, CkptOptions(), st.now, &done);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  st.mapper = std::move(*recovered);
  st.now = done;
  EXPECT_EQ(st.Digest(0), expected);
  EXPECT_TRUE(st.mapper->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace noftl::mvcc
