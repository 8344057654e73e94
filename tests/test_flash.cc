// Unit tests for the NAND flash simulator: geometry, NAND constraints
// (erase-before-program, sequential programming), OOB metadata, copyback,
// timing/queueing, wear accounting, endurance.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "flash/device.h"

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

TEST_F(FlashDeviceTest, ReadQueuedBehindLaterIssuedWorkIsCounted) {
  // Dies serve ops in call order: a program issued at t=1000 reaches die 0
  // first, so a read issued at t=0 waits behind work from its future.
  auto data = PageOf('p');
  auto w = device_.ProgramPage({0, 0, 0}, 1000, OpOrigin::kHost, data.data(),
                               {});
  ASSERT_TRUE(w.ok());
  auto buf = PageOf(0);
  auto r = device_.ReadPage({0, 0, 0}, 0, OpOrigin::kHost, buf.data(), nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.start, w.complete);
  EXPECT_EQ(device_.stats().host_reads_behind_later, 1u);
  EXPECT_EQ(device_.stats().host_read_wait_behind_later_us, w.complete);

  // A read issued after the program, and one on an idle die, are not.
  ASSERT_TRUE(device_.ReadPage({0, 0, 0}, 2000, OpOrigin::kHost, buf.data(),
                               nullptr)
                  .ok());
  ASSERT_TRUE(
      device_.ReadPage({1, 0, 0}, 0, OpOrigin::kHost, buf.data(), nullptr)
          .ok());
  EXPECT_EQ(device_.stats().host_reads_behind_later, 1u);
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
