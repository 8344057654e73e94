// Latency/value histogram with percentile queries.
//
// Log-bucketed (RocksDB-style HistogramStat layout, simplified) so that a
// histogram is O(1) to record into and cheap to merge; percentiles are
// interpolated within buckets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace noftl {

class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double Mean() const;

  /// p in [0, 100]; linear interpolation within the containing bucket.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double P50() const { return Percentile(50.0); }
  double P99() const { return Percentile(99.0); }
  /// Tail accessor for the QoS gates: the 99.9th percentile.
  double P999() const { return Percentile(99.9); }

  /// One-line summary: "count=N mean=X p50=… p95=… p99=… max=…".
  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 128;

  static int BucketFor(uint64_t value);

  uint64_t count_;
  uint64_t sum_;
  uint64_t min_;
  uint64_t max_;
  std::vector<uint64_t> buckets_;
};

}  // namespace noftl
