// Unit tests for the NAND flash simulator: geometry, NAND constraints
// (erase-before-program, sequential programming), OOB metadata, copyback,
// timing/queueing, wear accounting, endurance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "flash/device.h"
#include "flash/timeline.h"

namespace noftl::flash {
namespace {

FlashGeometry TinyGeometry() {
  FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = 8;
  geo.pages_per_block = 4;
  geo.page_size = 512;
  return geo;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  FlashDeviceTest() : device_(TinyGeometry(), FlashTiming{}) {}

  std::vector<char> PageOf(char fill) {
    return std::vector<char>(TinyGeometry().page_size, fill);
  }

  FlashDevice device_;
};

TEST(FlashGeometryTest, DefaultsAreValidAndMatchPaperDevice) {
  FlashGeometry geo;
  EXPECT_TRUE(geo.Validate().ok());
  EXPECT_EQ(geo.total_dies(), 64u);  // the paper's 64-die SSD
  EXPECT_EQ(geo.pages_per_block, 64u);
  EXPECT_EQ(geo.page_size, 4096u);
}

TEST(FlashGeometryTest, ValidationCatchesBadFields) {
  FlashGeometry geo = TinyGeometry();
  geo.channels = 0;
  EXPECT_FALSE(geo.Validate().ok());

  geo = TinyGeometry();
  geo.page_size = 1000;  // not a power of two
  EXPECT_FALSE(geo.Validate().ok());

  geo = TinyGeometry();
  geo.planes_per_die = 3;
  geo.blocks_per_die = 8;  // not a multiple of planes
  EXPECT_FALSE(geo.Validate().ok());
}

TEST(FlashGeometryTest, DerivedQuantities) {
  FlashGeometry geo = TinyGeometry();
  EXPECT_EQ(geo.total_dies(), 4u);
  EXPECT_EQ(geo.total_blocks(), 32u);
  EXPECT_EQ(geo.total_pages(), 128u);
  EXPECT_EQ(geo.total_bytes(), 128u * 512);
  EXPECT_EQ(geo.channel_of(0), 0u);
  EXPECT_EQ(geo.channel_of(1), 1u);
  EXPECT_EQ(geo.channel_of(2), 0u);
  EXPECT_TRUE(geo.Contains({3, 7, 3}));
  EXPECT_FALSE(geo.Contains({4, 0, 0}));
  EXPECT_FALSE(geo.Contains({0, 8, 0}));
  EXPECT_FALSE(geo.Contains({0, 0, 4}));
}

TEST_F(FlashDeviceTest, ProgramThenReadRoundTrips) {
  auto data = PageOf('x');
  PageMetadata meta;
  meta.logical_id = 42;
  meta.object_id = 7;
  auto w = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), meta);
  ASSERT_TRUE(w.ok()) << w.status.ToString();

  auto buf = PageOf(0);
  PageMetadata got;
  auto r = device_.ReadPage({0, 0, 0}, w.complete, OpOrigin::kHost, buf.data(),
                            &got);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(memcmp(buf.data(), data.data(), data.size()), 0);
  EXPECT_EQ(got.logical_id, 42u);
  EXPECT_EQ(got.object_id, 7u);
}

TEST_F(FlashDeviceTest, ReadBackfillsIdleDieTimeBeforeLaterProgram) {
  // A program issued at t=1000 is booked first; a read of another page of
  // the same die issued at t=0 fits in the idle time before it.
  auto data = PageOf('p');
  auto w = device_.ProgramPage({0, 0, 0}, 1000, OpOrigin::kHost, data.data(),
                               {});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.start, 1000u);
  auto buf = PageOf(0);
  auto r = device_.ReadPage({0, 1, 0}, 0, OpOrigin::kHost, buf.data(), nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.start, 0u);
  EXPECT_EQ(r.complete, FlashTiming{}.read_us + FlashTiming{}.transfer_us);
  // The die's horizon is still the end of its last reservation.
  EXPECT_EQ(device_.DieBusyUntil(0), w.complete);
}

TEST_F(FlashDeviceTest, ReadOfProgrammedPageWaitsForItsProgram) {
  auto data = PageOf('p');
  auto w = device_.ProgramPage({0, 0, 0}, 1000, OpOrigin::kHost, data.data(),
                               {});
  ASSERT_TRUE(w.ok());
  auto buf = PageOf(0);
  auto r = device_.ReadPage({0, 0, 0}, 0, OpOrigin::kHost, buf.data(), nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.start, w.complete);
  EXPECT_EQ(memcmp(buf.data(), data.data(), data.size()), 0);
}

TEST_F(FlashDeviceTest, ProgramDoesNotWaitBehindAnotherDiesLaterTransfer) {
  // Dies 0 and 2 share channel 0. Die 2 books a transfer far ahead; die 0's
  // program at t=0 takes the idle channel before it.
  auto data = PageOf('c');
  auto far = device_.ProgramPage({2, 0, 0}, 100000, OpOrigin::kHost,
                                 data.data(), {});
  ASSERT_TRUE(far.ok());
  auto w = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.start, 0u);
  EXPECT_EQ(device_.ChannelBusyUntil(0), far.start + FlashTiming{}.transfer_us);
}

TEST_F(FlashDeviceTest, BlockOpsKeepPhysicalOrder) {
  const FlashTiming t;
  auto data = PageOf('e');
  // A program into a block waits for the block's erase, even when the die
  // is idle before it.
  auto er = device_.EraseBlock(1, 3, 10000, OpOrigin::kGc);
  ASSERT_TRUE(er.ok());
  auto w = device_.ProgramPage({1, 3, 0}, 0, OpOrigin::kHost, data.data(), {});
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.start, er.complete);
  // ... and so does the block's next page, behind the first one.
  auto w1 = device_.ProgramPage({1, 3, 1}, 0, OpOrigin::kHost, data.data(), {});
  ASSERT_TRUE(w1.ok());
  EXPECT_GE(w1.start, w.complete);

  // An erase waits for the last read booked on its block ...
  auto p4 = device_.ProgramPage({1, 4, 0}, 0, OpOrigin::kHost, data.data(), {});
  ASSERT_TRUE(p4.ok());
  EXPECT_EQ(p4.start, 0u);  // backfilled before the erase above
  auto rd = device_.ReadPage({1, 4, 0}, 20000, OpOrigin::kHost, nullptr,
                             nullptr);
  ASSERT_TRUE(rd.ok());
  auto e4 = device_.EraseBlock(1, 4, 0, OpOrigin::kGc);
  ASSERT_TRUE(e4.ok());
  EXPECT_EQ(e4.start, rd.complete);

  // ... and for the last copyback out of it.
  auto p5 = device_.ProgramPage({1, 5, 0}, 0, OpOrigin::kHost, data.data(), {});
  ASSERT_TRUE(p5.ok());
  auto cb = device_.Copyback(1, 5, 0, 6, 0, 30000, OpOrigin::kGc, nullptr);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(cb.complete - cb.start, t.copyback_us);
  auto e5 = device_.EraseBlock(1, 5, 0, OpOrigin::kGc);
  ASSERT_TRUE(e5.ok());
  EXPECT_EQ(e5.start, cb.complete);
}

TEST(FlashTimelineTest, BackfillsGapsAndForgetsTheOldest) {
  Timeline tl;
  // 40 spaced reservations booked in time order leave 40 gaps before the
  // end; only the newest kMaxGaps are kept.
  for (SimTime k = 1; k <= 40; k++) {
    const Timeline::Fit fit = tl.EarliestFit(100 * k, 10);
    ASSERT_EQ(fit.start, 100 * k);
    tl.Reserve(fit, 10);
  }
  EXPECT_EQ(tl.end(), 4010u);
  // The oldest gaps ([0,100), [110,200), ...) are forgotten and count as
  // busy; the earliest remembered one is the 9th, [810, 900).
  static_assert(Timeline::kMaxGaps == 32);
  EXPECT_EQ(tl.EarliestFit(0, 10).start, 810u);
  // Too long for any gap: the op goes to the end.
  EXPECT_EQ(tl.EarliestFit(0, 500).start, 4010u);
  // A fit inside a gap splits it; the two halves stay usable.
  const Timeline::Fit mid = tl.EarliestFit(3930, 20);
  ASSERT_EQ(mid.start, 3930u);
  tl.Reserve(mid, 20);  // gap [3910, 4000) -> [3910, 3930) + [3950, 4000)
  EXPECT_EQ(tl.EarliestFit(3905, 20).start, 3910u);
  EXPECT_EQ(tl.EarliestFit(3915, 20).start, 3950u);
  EXPECT_EQ(tl.EarliestFit(3915, 60).start, 4010u);
  EXPECT_EQ(tl.end(), 4010u);
}

/// Replays a fixed-seed stream of valid ops with non-monotone issue times
/// and checks the scheduling contract against a model of the same history.
TEST(FlashScheduleProperty, BackfillingNeverOverlapsAndNeverLosesToTheHorizon) {
  FlashGeometry geo = TinyGeometry();
  geo.blocks_per_die = 16;
  geo.pages_per_block = 8;
  const FlashTiming t;
  FlashDevice device(geo, t);
  const uint32_t dies = geo.total_dies();

  struct Interval {
    SimTime start;
    SimTime end;
  };
  std::vector<std::vector<Interval>> die_busy(dies);
  std::vector<std::vector<Interval>> chan_busy(geo.channels);
  std::vector<SimTime> die_end(dies, 0);
  std::vector<SimTime> chan_end(geo.channels, 0);
  // Model of the physical order (see the timing notes in device.h).
  const size_t pages = geo.total_pages();
  std::vector<SimTime> programmed_at(pages, 0);
  std::vector<SimTime> erased_at(geo.total_blocks(), 0);
  std::vector<SimTime> booked_until(geo.total_blocks(), 0);
  auto block_index = [&](DieId d, BlockId b) {
    return static_cast<size_t>(d) * geo.blocks_per_die + b;
  };
  auto page_index = [&](DieId d, BlockId b, PageId p) {
    return block_index(d, b) * geo.pages_per_block + p;
  };
  auto book = [](std::vector<Interval>* v, SimTime* end, SimTime s,
                 SimTime e) {
    v->push_back({s, e});
    *end = std::max(*end, e);
  };

  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng](uint64_t n) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng % n;
  };

  SimTime clock = 0;
  int backfilled = 0;
  for (int i = 0; i < 6000; i++) {
    // Issue times wander up to 50 ms behind and 5 ms ahead of a clock
    // that creeps forward, so most ops land before some die's horizon.
    clock += next(400);
    const SimTime issue = clock + next(55000) - std::min<SimTime>(clock, 50000);
    const DieId die = static_cast<DieId>(next(dies));
    const uint32_t ch = geo.channel_of(die);
    const BlockId block = static_cast<BlockId>(next(geo.blocks_per_die));
    const size_t bi = block_index(die, block);
    const PageId cursor = device.NextProgramPage(die, block);
    const SimTime die_before = die_end[die];
    const SimTime chan_before = chan_end[ch];
    const uint64_t kind = next(10);

    if (kind < 4 && cursor < geo.pages_per_block) {  // program
      const SimTime ready = std::max(
          issue, cursor > 0 ? programmed_at[page_index(die, block, cursor - 1)]
                            : erased_at[bi]);
      auto r = device.ProgramPage({die, block, cursor}, issue, OpOrigin::kHost,
                                  nullptr, {});
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      ASSERT_GE(r.start, ready);
      ASSERT_LE(r.start, std::max({ready, die_before, chan_before}));
      ASSERT_EQ(r.complete, r.start + t.transfer_us + t.program_us);
      book(&die_busy[die], &die_end[die], r.start, r.complete);
      book(&chan_busy[ch], &chan_end[ch], r.start, r.start + t.transfer_us);
      programmed_at[page_index(die, block, cursor)] = r.complete;
      booked_until[bi] = std::max(booked_until[bi], r.complete);
      if (r.start < die_before) backfilled++;
    } else if (kind < 7 && cursor > 0) {  // read of a programmed page
      const PageId page = static_cast<PageId>(next(cursor));
      const SimTime ready = std::max(
          {issue, programmed_at[page_index(die, block, page)], erased_at[bi]});
      auto r = device.ReadPage({die, block, page}, issue, OpOrigin::kHost,
                               nullptr, nullptr);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      ASSERT_GE(r.start, ready);
      ASSERT_EQ(r.complete, r.start + t.read_us + t.transfer_us);
      // The old rule read the array at max(ready, die horizon), then waited
      // for the channel horizon before transferring.
      ASSERT_LE(r.complete,
                std::max(std::max(ready, die_before) + t.read_us,
                         chan_before) + t.transfer_us);
      book(&die_busy[die], &die_end[die], r.start, r.complete);
      book(&chan_busy[ch], &chan_end[ch], r.complete - t.transfer_us,
           r.complete);
      booked_until[bi] = std::max(booked_until[bi], r.complete);
      if (r.start < die_before) backfilled++;
    } else if (kind < 8 && cursor > 0) {  // OOB read
      const PageId page = static_cast<PageId>(next(cursor));
      const SimTime ready = std::max(
          {issue, programmed_at[page_index(die, block, page)], erased_at[bi]});
      auto r = device.ReadOob({die, block, page}, issue, OpOrigin::kHost,
                              nullptr);
      ASSERT_TRUE(r.ok());
      ASSERT_GE(r.start, ready);
      ASSERT_LE(r.start, std::max(ready, die_before));
      book(&die_busy[die], &die_end[die], r.start, r.complete);
      booked_until[bi] = std::max(booked_until[bi], r.complete);
    } else if (kind < 9 && cursor > 0) {  // copyback into another block
      const BlockId dst = (block + 1 + static_cast<BlockId>(next(
                               geo.blocks_per_die - 1))) % geo.blocks_per_die;
      const PageId dst_page = device.NextProgramPage(die, dst);
      if (dst_page >= geo.pages_per_block) continue;
      const PageId page = static_cast<PageId>(next(cursor));
      const size_t di = block_index(die, dst);
      const SimTime ready = std::max(
          {issue, programmed_at[page_index(die, block, page)],
           dst_page > 0 ? programmed_at[page_index(die, dst, dst_page - 1)]
                        : erased_at[di]});
      auto r = device.Copyback(die, block, page, dst, dst_page, issue,
                               OpOrigin::kGc, nullptr);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      ASSERT_GE(r.start, ready);
      ASSERT_LE(r.start, std::max(ready, die_before));
      book(&die_busy[die], &die_end[die], r.start, r.complete);
      programmed_at[page_index(die, dst, dst_page)] = r.complete;
      booked_until[bi] = std::max(booked_until[bi], r.complete);
      booked_until[di] = std::max(booked_until[di], r.complete);
    } else if (kind == 9) {  // erase
      const SimTime ready = std::max(issue, booked_until[bi]);
      auto r = device.EraseBlock(die, block, issue, OpOrigin::kGc);
      ASSERT_TRUE(r.ok()) << r.status.ToString();
      ASSERT_GE(r.start, ready);
      ASSERT_LE(r.start, std::max(ready, die_before));
      book(&die_busy[die], &die_end[die], r.start, r.complete);
      erased_at[bi] = r.complete;
      booked_until[bi] = r.complete;
    }
  }
  // The stream really exercised backfilling (and, with thousands of ops
  // over 4 dies, overflowed the gap bound).
  EXPECT_GT(backfilled, 500);

  auto check_disjoint = [](std::vector<Interval> v, const char* what,
                           uint32_t id) {
    std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
      return a.start < b.start;
    });
    for (size_t k = 1; k < v.size(); k++) {
      ASSERT_LE(v[k - 1].end, v[k].start)
          << what << " " << id << " reservations overlap at " << v[k].start;
    }
  };
  for (uint32_t d = 0; d < dies; d++) {
    check_disjoint(die_busy[d], "die", d);
    EXPECT_EQ(device.DieBusyUntil(d), die_end[d]);
  }
  for (uint32_t c = 0; c < geo.channels; c++) {
    check_disjoint(chan_busy[c], "channel", c);
    EXPECT_EQ(device.ChannelBusyUntil(c), chan_end[c]);
  }
}

TEST_F(FlashDeviceTest, ErasedPageReadsAllOnes) {
  auto buf = PageOf(0);
  PageMetadata meta;
  auto r = device_.ReadPage({1, 2, 3}, 0, OpOrigin::kHost, buf.data(), &meta);
  ASSERT_TRUE(r.ok());
  for (char c : buf) EXPECT_EQ(static_cast<unsigned char>(c), 0xFF);
  EXPECT_EQ(meta.logical_id, PageMetadata::kUnset);
}

TEST_F(FlashDeviceTest, DoubleProgramFails) {
  auto data = PageOf('a');
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  auto again = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  EXPECT_TRUE(again.status.IsCorruption());
}

TEST_F(FlashDeviceTest, NonSequentialProgramFails) {
  auto data = PageOf('a');
  auto r = device_.ProgramPage({0, 0, 2}, 0, OpOrigin::kHost, data.data(), {});
  EXPECT_TRUE(r.status.IsInvalidArgument());
  // Page 0 then 1 then 2 is fine.
  EXPECT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  EXPECT_TRUE(device_.ProgramPage({0, 0, 1}, 0, OpOrigin::kHost, data.data(), {}).ok());
  EXPECT_TRUE(device_.ProgramPage({0, 0, 2}, 0, OpOrigin::kHost, data.data(), {}).ok());
  EXPECT_EQ(device_.NextProgramPage(0, 0), 3u);
}

TEST_F(FlashDeviceTest, EraseResetsBlock) {
  auto data = PageOf('z');
  for (PageId p = 0; p < 4; p++) {
    ASSERT_TRUE(
        device_.ProgramPage({0, 1, p}, 0, OpOrigin::kHost, data.data(), {}).ok());
  }
  EXPECT_EQ(device_.NextProgramPage(0, 1), 4u);
  ASSERT_TRUE(device_.EraseBlock(0, 1, 0, OpOrigin::kGc).ok());
  EXPECT_EQ(device_.NextProgramPage(0, 1), 0u);
  EXPECT_EQ(device_.EraseCount(0, 1), 1u);
  EXPECT_EQ(device_.GetPageState({0, 1, 0}), PageState::kErased);
  // Re-programmable after erase.
  EXPECT_TRUE(device_.ProgramPage({0, 1, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
}

TEST_F(FlashDeviceTest, CopybackMovesDataAndMetadata) {
  auto data = PageOf('c');
  PageMetadata meta;
  meta.logical_id = 99;
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), meta).ok());

  auto cb = device_.Copyback(0, 0, 0, 1, 0, 0, OpOrigin::kGc, nullptr);
  ASSERT_TRUE(cb.ok()) << cb.status.ToString();

  auto buf = PageOf(0);
  PageMetadata got;
  ASSERT_TRUE(device_.ReadPage({0, 1, 0}, cb.complete, OpOrigin::kHost,
                               buf.data(), &got).ok());
  EXPECT_EQ(memcmp(buf.data(), data.data(), data.size()), 0);
  EXPECT_EQ(got.logical_id, 99u);
}

TEST_F(FlashDeviceTest, CopybackCanRewriteMetadata) {
  auto data = PageOf('m');
  PageMetadata meta;
  meta.logical_id = 1;
  meta.version = 5;
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), meta).ok());
  PageMetadata updated = meta;
  updated.version = 6;
  ASSERT_TRUE(device_.Copyback(0, 0, 0, 1, 0, 0, OpOrigin::kGc, &updated).ok());
  EXPECT_EQ(device_.PeekMetadata({0, 1, 0}).version, 6u);
}

TEST_F(FlashDeviceTest, CopybackConstraints) {
  auto data = PageOf('q');
  // Source not programmed.
  EXPECT_TRUE(device_.Copyback(0, 0, 0, 1, 0, 0, OpOrigin::kGc, nullptr)
                  .status.IsInvalidArgument());
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  // Destination non-sequential.
  EXPECT_TRUE(device_.Copyback(0, 0, 0, 1, 2, 0, OpOrigin::kGc, nullptr)
                  .status.IsInvalidArgument());
  // Destination already programmed.
  ASSERT_TRUE(device_.ProgramPage({0, 1, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  EXPECT_TRUE(device_.Copyback(0, 0, 0, 1, 0, 0, OpOrigin::kGc, nullptr)
                  .status.IsCorruption());
}

TEST_F(FlashDeviceTest, OutOfRangeAddressesRejected) {
  auto data = PageOf('r');
  EXPECT_TRUE(device_.ProgramPage({9, 0, 0}, 0, OpOrigin::kHost, data.data(), {})
                  .status.IsOutOfRange());
  EXPECT_TRUE(device_.ReadPage({0, 9, 0}, 0, OpOrigin::kHost, data.data(), nullptr)
                  .status.IsOutOfRange());
  EXPECT_TRUE(device_.EraseBlock(0, 9, 0, OpOrigin::kGc).status.IsOutOfRange());
}

TEST_F(FlashDeviceTest, ReadTimingIncludesArrayAndTransfer) {
  FlashTiming t;  // read 50, transfer 40
  auto data = PageOf('t');
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  const SimTime start = device_.DieBusyUntil(0);
  auto r = device_.ReadPage({0, 0, 0}, start, OpOrigin::kHost, data.data(), nullptr);
  EXPECT_EQ(r.complete - start, t.read_us + t.transfer_us);
}

TEST_F(FlashDeviceTest, ProgramTimingIncludesTransferAndArray) {
  FlashTiming t;  // program 500, transfer 40
  auto data = PageOf('t');
  auto w = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  EXPECT_EQ(w.complete, t.transfer_us + t.program_us);
}

TEST_F(FlashDeviceTest, SameDieOperationsQueue) {
  auto data = PageOf('q');
  auto w1 = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  auto w2 = device_.ProgramPage({0, 0, 1}, 0, OpOrigin::kHost, data.data(), {});
  // Second program cannot start its transfer before the first finishes.
  EXPECT_GE(w2.start, w1.complete);
}

TEST_F(FlashDeviceTest, DifferentDiesDifferentChannelsOverlap) {
  auto data = PageOf('p');
  auto w1 = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  auto w2 = device_.ProgramPage({1, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  // Dies 0 and 1 are on channels 0 and 1: fully parallel.
  EXPECT_EQ(w1.start, w2.start);
  EXPECT_EQ(w1.complete, w2.complete);
}

TEST_F(FlashDeviceTest, SameChannelTransfersSerialize) {
  FlashTiming t;
  auto data = PageOf('s');
  // Dies 0 and 2 share channel 0 in the tiny geometry.
  auto w1 = device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  auto w2 = device_.ProgramPage({2, 0, 0}, 0, OpOrigin::kHost, data.data(), {});
  // The array programs overlap but the channel transfers serialize.
  EXPECT_EQ(w2.complete - w1.complete, t.transfer_us);
}

TEST_F(FlashDeviceTest, CopybackDoesNotUseChannel) {
  auto data = PageOf('c');
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  const SimTime chan_before = device_.ChannelBusyUntil(0);
  const SimTime t0 = device_.DieBusyUntil(0);
  auto cb = device_.Copyback(0, 0, 0, 1, 0, t0, OpOrigin::kGc, nullptr);
  ASSERT_TRUE(cb.ok());
  EXPECT_EQ(device_.ChannelBusyUntil(0), chan_before);
  EXPECT_EQ(cb.complete - cb.start, FlashTiming{}.copyback_us);
}

TEST_F(FlashDeviceTest, StatsAttributeOrigins) {
  auto data = PageOf('o');
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  ASSERT_TRUE(device_.ProgramPage({0, 0, 1}, 0, OpOrigin::kGc, data.data(), {}).ok());
  ASSERT_TRUE(device_.ReadPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), nullptr).ok());
  ASSERT_TRUE(device_.Copyback(0, 0, 0, 1, 0, 0, OpOrigin::kGc, nullptr).ok());
  ASSERT_TRUE(device_.EraseBlock(0, 2, 0, OpOrigin::kWearLevel).ok());

  const FlashStats& s = device_.stats();
  EXPECT_EQ(s.host_writes(), 1u);
  EXPECT_EQ(s.total_programs(), 2u);
  EXPECT_EQ(s.host_reads(), 1u);
  EXPECT_EQ(s.gc_copybacks(), 1u);
  EXPECT_EQ(s.total_erases(), 1u);
  EXPECT_EQ(s.gc_erases(), 0u);
  EXPECT_EQ(s.erases[static_cast<int>(OpOrigin::kWearLevel)], 1u);
}

TEST_F(FlashDeviceTest, HostLatencyHistogramsPopulated) {
  auto data = PageOf('h');
  ASSERT_TRUE(device_.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  ASSERT_TRUE(device_.ReadPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), nullptr).ok());
  EXPECT_EQ(device_.stats().host_write_latency_us.count(), 1u);
  EXPECT_EQ(device_.stats().host_read_latency_us.count(), 1u);
}

TEST_F(FlashDeviceTest, WearSummaryTracksErases) {
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(device_.EraseBlock(0, 0, 0, OpOrigin::kGc).ok());
  }
  ASSERT_TRUE(device_.EraseBlock(1, 0, 0, OpOrigin::kGc).ok());
  uint32_t min_e = 0;
  uint32_t max_e = 0;
  double avg = 0;
  device_.WearSummary(&min_e, &max_e, &avg);
  EXPECT_EQ(min_e, 0u);
  EXPECT_EQ(max_e, 3u);
  EXPECT_NEAR(avg, 4.0 / 32.0, 1e-9);
}

TEST(FlashEnduranceTest, EraseBeyondBudgetFails) {
  FlashGeometry geo = TinyGeometry();
  geo.erase_endurance = 2;
  FlashDevice device(geo, FlashTiming{});
  EXPECT_TRUE(device.EraseBlock(0, 0, 0, OpOrigin::kGc).ok());
  EXPECT_TRUE(device.EraseBlock(0, 0, 0, OpOrigin::kGc).ok());
  EXPECT_TRUE(device.EraseBlock(0, 0, 0, OpOrigin::kGc).status.IsWornOut());
}

TEST(FlashTimingTest, NullDataProgramAndReadWork) {
  // Space-management experiments may run without payloads.
  FlashDevice device(TinyGeometry(), FlashTiming{});
  PageMetadata meta;
  meta.logical_id = 5;
  ASSERT_TRUE(device.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, nullptr, meta).ok());
  PageMetadata got;
  ASSERT_TRUE(device.ReadPage({0, 0, 0}, 0, OpOrigin::kHost, nullptr, &got).ok());
  EXPECT_EQ(got.logical_id, 5u);
}

TEST(FlashBusyTimeTest, DieBusyTimeAccumulates) {
  FlashDevice device(TinyGeometry(), FlashTiming{});
  auto data = std::vector<char>(512, 'b');
  ASSERT_TRUE(device.ProgramPage({0, 0, 0}, 0, OpOrigin::kHost, data.data(), {}).ok());
  EXPECT_GT(device.DieBusyTime(0), 0u);
  EXPECT_EQ(device.DieBusyTime(1), 0u);
}

}  // namespace
}  // namespace noftl::flash
