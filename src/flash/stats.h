// Operation accounting for the simulated flash device.
//
// Every operation is attributed to an origin (host I/O, garbage collection,
// wear leveling, metadata) so benchmarks can report exactly the counters the
// paper's Figure 3 uses: host READ/WRITE I/Os, GC COPYBACKs, GC ERASEs.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/atomic_counter.h"
#include "common/histogram.h"

namespace noftl::flash {

/// Who issued a flash operation.
enum class OpOrigin : uint8_t {
  kHost = 0,       ///< regular DBMS page I/O
  kGc = 1,         ///< garbage collection (copybacks, erases, relocations)
  kWearLevel = 2,  ///< wear-leveling data migration
  kMeta = 3,       ///< mapping/catalog persistence
};
inline constexpr int kNumOrigins = 4;

const char* OpOriginName(OpOrigin origin);

/// Counter matrix: operations × origins, plus latency histograms for
/// host-visible reads and writes. The counters are relaxed atomics (see
/// common/atomic_counter.h) so concurrent workers hammering one device can
/// increment them without races; the histograms are plain and rely on the
/// device mutex (all Record calls happen inside locked device methods).
struct FlashStats {
  std::array<RelaxedCounter, kNumOrigins> reads{};
  std::array<RelaxedCounter, kNumOrigins> programs{};
  std::array<RelaxedCounter, kNumOrigins> erases{};
  std::array<RelaxedCounter, kNumOrigins> copybacks{};

  /// Completion − issue for host-origin operations, µs.
  Histogram host_read_latency_us;
  Histogram host_write_latency_us;

  uint64_t total_reads() const { return Sum(reads); }
  uint64_t total_programs() const { return Sum(programs); }
  uint64_t total_erases() const { return Sum(erases); }
  uint64_t total_copybacks() const { return Sum(copybacks); }

  uint64_t host_reads() const { return reads[0]; }
  uint64_t host_writes() const { return programs[0]; }
  uint64_t gc_copybacks() const { return copybacks[1]; }
  uint64_t gc_erases() const { return erases[1]; }

  /// Write amplification: physical programs+copybacks per host program.
  double WriteAmplification() const;

  void Reset();
  std::string ToString() const;

 private:
  static uint64_t Sum(const std::array<RelaxedCounter, kNumOrigins>& a) {
    uint64_t s = 0;
    for (const auto& v : a) s += v;
    return s;
  }
};

}  // namespace noftl::flash
