// Fault injection & bad-block management: program/erase failures retire
// blocks, data survives, capacity accounting stays sane, and a randomized
// property test keeps the mapper consistent under sustained faults.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "flash/device.h"
#include "ftl/mapping.h"

namespace noftl::ftl {
namespace {

flash::FlashGeometry TinyGeometry(uint32_t blocks = 24) {
  flash::FlashGeometry geo;
  geo.channels = 2;
  geo.dies_per_channel = 2;
  geo.planes_per_die = 1;
  geo.blocks_per_die = blocks;
  geo.pages_per_block = 8;
  geo.page_size = 256;
  return geo;
}

std::vector<flash::DieId> AllDies(const flash::FlashGeometry& geo) {
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;
  return dies;
}

TEST(FaultInjectionTest, DeviceInjectsDeterministically) {
  flash::FlashGeometry geo = TinyGeometry();
  auto run = [&] {
    flash::FlashDevice device(geo, flash::FlashTiming{});
    flash::FaultOptions faults;
    faults.program_failure_rate = 0.3;
    faults.seed = 99;
    device.SetFaults(faults);
    uint64_t failures = 0;
    for (flash::PageId p = 0; p < 8; p++) {
      for (flash::BlockId b = 0; b < 8; b++) {
        auto r = device.ProgramPage({0, b, p}, 0, flash::OpOrigin::kHost,
                                    nullptr, {});
        if (r.status.IsIOError()) failures++;
      }
    }
    return failures;
  };
  const uint64_t a = run();
  const uint64_t b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 5u);   // ~30% of 64
  EXPECT_LT(a, 40u);
}

TEST(FaultInjectionTest, FailedProgramBurnsThePage) {
  flash::FlashDevice device(TinyGeometry(), flash::FlashTiming{});
  flash::FaultOptions faults;
  faults.program_failure_rate = 1.0;
  device.SetFaults(faults);
  auto r = device.ProgramPage({0, 0, 0}, 0, flash::OpOrigin::kHost, nullptr, {});
  EXPECT_TRUE(r.status.IsIOError());
  // The page is consumed: the cursor advanced and the page is not erased.
  EXPECT_EQ(device.NextProgramPage(0, 0), 1u);
  EXPECT_EQ(device.GetPageState({0, 0, 0}), flash::PageState::kProgrammed);
  EXPECT_EQ(device.program_failures(), 1u);
}

TEST(FaultInjectionTest, FailedEraseStillWears) {
  flash::FlashDevice device(TinyGeometry(), flash::FlashTiming{});
  flash::FaultOptions faults;
  faults.erase_failure_rate = 1.0;
  device.SetFaults(faults);
  EXPECT_TRUE(device.EraseBlock(0, 0, 0, flash::OpOrigin::kGc).status.IsIOError());
  EXPECT_EQ(device.EraseCount(0, 0), 1u);
  EXPECT_EQ(device.erase_failures(), 1u);
}

TEST(BadBlockTest, WriteRetriesAndRetiresBlocks) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 128, MapperOptions{});

  flash::FaultOptions faults;
  faults.program_failure_rate = 0.25;
  faults.seed = 7;
  device.SetFaults(faults);

  std::vector<char> data(geo.page_size, 'w');
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    Status s = mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                            nullptr);
    ASSERT_TRUE(s.ok()) << "lpn " << lpn << ": " << s.ToString();
  }
  EXPECT_GT(mapper.retired_blocks(), 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
  // All data readable despite the faults.
  std::vector<char> buf(geo.page_size);
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    ASSERT_TRUE(mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr).ok());
    EXPECT_EQ(buf[0], 'w');
  }
}

TEST(BadBlockTest, GcRescuesValidPagesFromRetiredBlocks) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 128, MapperOptions{});
  std::vector<char> data(geo.page_size, 'g');

  // Write cleanly, then churn under faults: retired blocks carrying valid
  // pages must have them rescued by GC, never lost.
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  // Every program failure retires a whole block, so sustained-churn rates
  // must stay low or the device genuinely runs out of blocks (a real SSD
  // with percent-level program failure is end-of-life).
  flash::FaultOptions faults;
  faults.program_failure_rate = 0.02;
  faults.erase_failure_rate = 0.01;
  faults.seed = 21;
  device.SetFaults(faults);
  Rng rng(3);
  for (int step = 0; step < 1500; step++) {
    const uint64_t lpn = rng.Below(128);
    std::vector<char> v(geo.page_size, static_cast<char>(rng.Below(256)));
    Status s = mapper.Write(lpn, 0, flash::OpOrigin::kHost, v.data(), 0, nullptr);
    ASSERT_TRUE(s.ok()) << "step " << step << ": " << s.ToString();
  }
  EXPECT_GT(mapper.retired_blocks(), 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
  EXPECT_EQ(mapper.valid_pages(), 128u);
}

struct FaultParam {
  double program_rate;
  double erase_rate;
  const char* name;
};

class FaultPropertyTest : public ::testing::TestWithParam<FaultParam> {};

TEST_P(FaultPropertyTest, ShadowModelHoldsUnderFaults) {
  const FaultParam param = GetParam();
  flash::FlashGeometry geo = TinyGeometry(32);
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 300, MapperOptions{});
  flash::FaultOptions faults;
  faults.program_failure_rate = param.program_rate;
  faults.erase_failure_rate = param.erase_rate;
  faults.seed = 1234;
  device.SetFaults(faults);

  std::map<uint64_t, char> shadow;
  Rng rng(77);
  std::vector<char> buf(geo.page_size);
  for (int step = 0; step < 3000; step++) {
    const uint64_t lpn = rng.Below(300);
    const int op = static_cast<int>(rng.Below(10));
    if (op < 6) {
      const char fill = static_cast<char>(rng.Below(256));
      std::vector<char> data(geo.page_size, fill);
      Status s = mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                              nullptr);
      ASSERT_TRUE(s.ok()) << "step " << step << ": " << s.ToString();
      shadow[lpn] = fill;
    } else if (op < 8) {
      Status s = mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
      if (shadow.count(lpn)) {
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(buf[0], shadow[lpn]) << "step " << step;
      } else {
        ASSERT_TRUE(s.IsNotFound());
      }
    } else {
      ASSERT_TRUE(mapper.Trim(lpn).ok());
      shadow.erase(lpn);
    }
  }
  ASSERT_TRUE(mapper.VerifyIntegrity().ok());
  ASSERT_EQ(mapper.valid_pages(), shadow.size());
}

INSTANTIATE_TEST_SUITE_P(
    Rates, FaultPropertyTest,
    ::testing::Values(FaultParam{0.002, 0.002, "light"},
                      FaultParam{0.008, 0.005, "moderate"},
                      FaultParam{0.02, 0.01, "heavy"}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Read-path faults: transient retry, read disturb, hard failures, salvage.
// ---------------------------------------------------------------------------

TEST(ReadFaultTest, TransientReadFailuresAreRetried) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions opts;
  opts.read_retry_attempts = 8;
  OutOfPlaceMapper mapper(&device, AllDies(geo), 128, opts);
  std::vector<char> data(geo.page_size, 'r');
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  flash::FaultOptions faults;
  faults.read_transient_rate = 0.25;
  faults.seed = 5;
  device.SetFaults(faults);
  std::vector<char> buf(geo.page_size);
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    Status s = mapper.Read(lpn, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
    ASSERT_TRUE(s.ok()) << "lpn " << lpn << ": " << s.ToString();
    EXPECT_EQ(buf[0], 'r');
  }
  EXPECT_GT(mapper.stats().read_retries, 0u);
  EXPECT_EQ(mapper.stats().read_retries_exhausted, 0u);
  EXPECT_GT(device.read_failures_transient(), 0u);
  EXPECT_EQ(device.read_failures_hard(), 0u);
}

TEST(ReadFaultTest, ExhaustedRetriesSurfaceIoError) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 16, MapperOptions{});
  std::vector<char> data(geo.page_size, 'x');
  ASSERT_TRUE(mapper.Write(0, 0, flash::OpOrigin::kHost, data.data(), 0,
                           nullptr).ok());
  flash::FaultOptions faults;
  faults.read_transient_rate = 1.0;  // every attempt fails
  device.SetFaults(faults);
  std::vector<char> buf(geo.page_size);
  Status s = mapper.Read(0, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  // Default policy: 4 attempts total = initial + 3 retries.
  EXPECT_EQ(mapper.stats().read_retries, 3u);
  EXPECT_EQ(mapper.stats().read_retries_exhausted, 1u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(ReadFaultTest, RetryAttemptsAreBounded) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions opts;
  opts.read_retry_attempts = 3;
  opts.read_retry_backoff_us = 1000;
  OutOfPlaceMapper mapper(&device, AllDies(geo), 16, opts);
  std::vector<char> data(geo.page_size, 'b');
  ASSERT_TRUE(mapper.Write(0, 0, flash::OpOrigin::kHost, data.data(), 0,
                           nullptr).ok());
  flash::FaultOptions faults;
  faults.read_transient_rate = 1.0;
  device.SetFaults(faults);
  EXPECT_TRUE(mapper.Read(0, 0, flash::OpOrigin::kHost, data.data(), nullptr)
                  .IsIOError());
  // Exactly `read_retry_attempts` media reads hit the device — the retry
  // loop is bounded, not infinite, under a solid failure.
  EXPECT_EQ(device.read_failures_transient(), 3u);
  EXPECT_EQ(mapper.stats().read_retries, 2u);
  EXPECT_EQ(mapper.stats().read_retries_exhausted, 1u);
}

TEST(ReadFaultTest, ReadDisturbScrubRelocatesTheBlock) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 128, MapperOptions{});
  std::vector<char> data(geo.page_size, 'd');
  for (uint64_t lpn = 0; lpn < 128; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  // Push every die's active block past lpn 0's block so the scrub is not
  // deferred on a pinned (actively written) block.
  for (uint64_t lpn = 64; lpn < 128; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  flash::FaultOptions faults;
  faults.read_disturb_limit = 16;
  faults.read_disturb_rate = 1.0;  // past the limit, every read fails
  faults.seed = 9;
  device.SetFaults(faults);
  const flash::PhysAddr before = mapper.DebugTranslate(0);
  std::vector<char> buf(geo.page_size);
  for (int i = 0; i < 40; i++) {
    Status s = mapper.Read(0, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
    ASSERT_TRUE(s.ok()) << "read " << i << ": " << s.ToString();
    EXPECT_EQ(buf[0], 'd');
  }
  const flash::PhysAddr after = mapper.DebugTranslate(0);
  EXPECT_FALSE(before == after) << "disturbed block was never relocated";
  EXPECT_GE(mapper.stats().read_scrub_blocks, 1u);
  EXPECT_GT(mapper.stats().read_scrubs_queued, 0u);
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
  EXPECT_EQ(mapper.valid_pages(), 128u);
}

TEST(ReadFaultTest, HardFailureSalvagesSupersededCopy) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 16, MapperOptions{});
  std::vector<char> a(geo.page_size, 'a');
  std::vector<char> b(geo.page_size, 'b');
  ASSERT_TRUE(mapper.Write(0, 0, flash::OpOrigin::kHost, a.data(), 0,
                           nullptr).ok());
  const flash::PhysAddr old_copy = mapper.DebugTranslate(0);
  ASSERT_TRUE(mapper.Write(0, 0, flash::OpOrigin::kHost, b.data(), 0,
                           nullptr).ok());
  const flash::PhysAddr new_copy = mapper.DebugTranslate(0);
  ASSERT_FALSE(old_copy == new_copy);
  // The live copy goes hard-unreadable; the out-of-place update left the
  // superseded copy physically intact, and the mapper adopts it.
  device.DebugMarkPageUnreadable(new_copy);
  std::vector<char> buf(geo.page_size);
  Status s = mapper.Read(0, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(buf[0], 'a');  // the superseded version's payload
  EXPECT_EQ(mapper.stats().reads_salvaged, 1u);
  EXPECT_EQ(mapper.stats().reads_lost, 0u);
  EXPECT_TRUE(mapper.DebugTranslate(0) == old_copy);
  // The adopted mapping serves subsequent reads normally.
  ASSERT_TRUE(mapper.Read(0, 0, flash::OpOrigin::kHost, buf.data(),
                          nullptr).ok());
  EXPECT_EQ(buf[0], 'a');
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(ReadFaultTest, HardFailureWithNoSurvivingCopyIsDataLoss) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  OutOfPlaceMapper mapper(&device, AllDies(geo), 16, MapperOptions{});
  std::vector<char> data(geo.page_size, 'z');
  ASSERT_TRUE(mapper.Write(0, 0, flash::OpOrigin::kHost, data.data(), 0,
                           nullptr).ok());
  device.DebugMarkPageUnreadable(mapper.DebugTranslate(0));
  std::vector<char> buf(geo.page_size);
  Status s = mapper.Read(0, 0, flash::OpOrigin::kHost, buf.data(), nullptr);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_EQ(mapper.stats().reads_lost, 1u);
  // The mapper stays consistent: other lpns unaffected, integrity holds.
  EXPECT_TRUE(mapper.VerifyIntegrity().ok());
}

TEST(ReadFaultTest, BatchedReadsRetryTransientFaults) {
  flash::FlashGeometry geo = TinyGeometry();
  flash::FlashDevice device(geo, flash::FlashTiming{});
  MapperOptions opts;
  opts.read_retry_attempts = 8;
  OutOfPlaceMapper mapper(&device, AllDies(geo), 64, opts);
  std::vector<char> data(geo.page_size, 'q');
  for (uint64_t lpn = 0; lpn < 64; lpn++) {
    ASSERT_TRUE(mapper.Write(lpn, 0, flash::OpOrigin::kHost, data.data(), 0,
                             nullptr).ok());
  }
  flash::FaultOptions faults;
  faults.read_transient_rate = 0.25;
  faults.seed = 31;
  device.SetFaults(faults);
  std::vector<storage::IoRequest> reqs(64);
  std::vector<std::vector<char>> bufs(64, std::vector<char>(geo.page_size));
  for (uint64_t lpn = 0; lpn < 64; lpn++) {
    reqs[lpn].op = storage::IoOp::kRead;
    reqs[lpn].lpn = lpn;
    reqs[lpn].read_buf = bufs[lpn].data();
  }
  storage::IoTicket ticket = 0;
  ASSERT_TRUE(mapper.SubmitBatch(reqs.data(), reqs.size(), 0,
                                 flash::OpOrigin::kHost, &ticket).ok());
  ASSERT_TRUE(mapper.WaitBatch(ticket, nullptr).ok());
  for (uint64_t lpn = 0; lpn < 64; lpn++) {
    ASSERT_TRUE(reqs[lpn].done);
    ASSERT_TRUE(reqs[lpn].status.ok())
        << "lpn " << lpn << ": " << reqs[lpn].status.ToString();
    EXPECT_EQ(bufs[lpn][0], 'q');
  }
  EXPECT_GT(mapper.stats().read_retries, 0u);
  EXPECT_EQ(mapper.stats().read_retries_exhausted, 0u);
}

TEST(ReadFaultTest, PerDieFaultStreamsAreIndependent) {
  flash::FlashGeometry geo = TinyGeometry();
  // Record die 1's failure pattern with and without extra traffic on die 0:
  // each die draws from its own stream, so the pattern must not shift.
  auto die1_pattern = [&](int die0_reads) {
    flash::FlashDevice device(geo, flash::FlashTiming{});
    std::vector<char> data(geo.page_size, 'p');
    for (flash::PageId p = 0; p < 8; p++) {
      for (flash::DieId d = 0; d < 2; d++) {
        EXPECT_TRUE(device.ProgramPage({d, 0, p}, 0, flash::OpOrigin::kHost,
                                       data.data(), {})
                        .status.ok());
      }
    }
    flash::FaultOptions faults;
    faults.read_transient_rate = 0.5;
    faults.seed = 42;
    device.SetFaults(faults);
    std::vector<char> buf(geo.page_size);
    for (int i = 0; i < die0_reads; i++) {
      (void)device.ReadPage({0, 0, static_cast<flash::PageId>(i % 8)}, 0,
                            flash::OpOrigin::kHost, buf.data(), nullptr);
    }
    uint64_t pattern = 0;
    for (int i = 0; i < 32; i++) {
      auto r = device.ReadPage({1, 0, static_cast<flash::PageId>(i % 8)}, 0,
                               flash::OpOrigin::kHost, buf.data(), nullptr);
      pattern = (pattern << 1) | (r.status.ok() ? 0u : 1u);
    }
    return pattern;
  };
  EXPECT_EQ(die1_pattern(0), die1_pattern(17));
}

}  // namespace
}  // namespace noftl::ftl
