// Closed-loop TPC-C driver.
//
// N terminals, each with a home warehouse, a fixed stock-level district and
// a card deck implementing the standard mix (45% NewOrder, 43% Payment, 4%
// each of Order-Status, Delivery, Stock-Level). Every terminal draws from
// its own rng/NURand stream (same NURand C constants as the loader) and runs
// a fixed quota of transactions, so the executed workload does not depend
// on how terminals interleave: runs over differently-timed storage stacks
// (shard counts, worker threads) commit the identical logical work.
// Concurrency is simulated by event order: the terminal with the smallest
// local clock always runs next, so transactions from different terminals
// interleave on the shared flash die timeline and contend for die service
// like real concurrent clients.
#pragma once

#include <cstdint>
#include <string>

#include "common/histogram.h"
#include "tpcc/tpcc_db.h"
#include "tpcc/transactions.h"

namespace noftl::tpcc {

/// Threaded mode: a worker starts a transaction only while its terminal's
/// simulated clock is at most this far ahead of the slowest active worker's.
/// Without a bound, a worker that falls behind issues its I/O onto dies the
/// others already pushed far into the future and waits out the whole gap.
inline constexpr SimTime kThreadedLagWindowUs = 20000;

struct DriverOptions {
  uint32_t terminals = 8;
  /// Stop after this many *measured* transactions (committed + rolled back),
  /// run in whole per-terminal quotas: every terminal runs
  /// ceil((warmup + max) / terminals) transactions, warmup included...
  uint64_t max_transactions = 50000;
  /// ...or after this much simulated time in the measured phase (µs;
  /// 0 = no time limit).
  SimTime max_sim_time_us = 0;
  /// Unmeasured transactions executed first, so the measurement interval
  /// sees steady-state GC instead of the first-fill transient (the paper
  /// measures a steady run, not a fresh device).
  uint64_t warmup_transactions = 0;
  uint64_t seed = 7;
  /// Run global wear leveling every N transactions (0 = off).
  uint32_t global_wl_interval = 0;
  /// Batched I/O in the transactions (multi-row prefetches, index leaf
  /// prefetch; see TpccTransactions::SetBatchedIo). Off = the serial
  /// one-page-at-a-time baseline.
  bool batched_io = true;
  /// Abort-and-retry: a transaction that fails with a transient storage
  /// error (IOError — the mapper's own read retries exhausted — or Busy)
  /// aborts and re-runs on the same terminal after a backoff, up to this
  /// many retries. A transaction still failing after the limit is counted
  /// in txn_giveups and rolled back; the run continues (graceful
  /// degradation, not a crash). 0 = fail fast on the first storage error
  /// (the old behaviour). Non-transient errors always abort the run.
  uint32_t txn_retry_limit = 3;
  SimTime txn_retry_backoff_us = 500;  ///< linear: retry i waits i * backoff
  /// Per-terminal think time between transactions (µs of simulated time,
  /// TPC-C clause 5.2.5.7 keying/think delays, scaled to the simulated
  /// device). 0 = the saturated closed loop (old behaviour). Think gaps are
  /// the idle windows the background scheduler fills: with 0 think time a
  /// saturated loop has no die idleness, so background work can only ever
  /// displace queued foreground work. Deterministic driver only.
  SimTime think_time_us = 0;
  /// Real OS worker threads driving the terminals concurrently (terminals
  /// are dealt round-robin to workers, each running its smallest-clock
  /// terminal within kThreadedLagWindowUs of the slowest worker;
  /// per-warehouse mutexes serialize conflicting transactions). 0 (default)
  /// = the deterministic event-ordered single-thread loop above —
  /// byte-identical runs. Threaded runs commit work digest-equal to the
  /// deterministic run and support neither global_wl_interval nor
  /// max_sim_time_us.
  uint32_t worker_threads = 0;
  /// Threaded mode: emulate device latency in wall-clock time. After each
  /// measured transaction the worker sleeps for the transaction's simulated
  /// elapsed time multiplied by this factor — a synchronous closed-loop
  /// client blocked on its own I/O. Die queueing lengthens the simulated
  /// elapsed time, so device contention carries into wall-clock throughput
  /// honestly: workers overlap each other's I/O waits but still stack up
  /// behind a shared die. 0 (default) = no pacing; wall metrics then
  /// measure pure CPU concurrency of the storage stack. Ignored by the
  /// deterministic driver.
  double wall_pace = 0;
  /// Run every Stock-Level on a flash-native MVCC snapshot: the terminal
  /// opens a snapshot (flushing its dirty buffers), scans against the
  /// pinned version horizon while other terminals keep writing, and
  /// releases it. Requires the native-flash backend; under the FTL backend
  /// the scan silently falls back to latest reads. Off (default) =
  /// byte-identical to the snapshot-free driver.
  bool snapshot_stocklevel = false;
};

/// Everything the paper's Figure 3 reports, measured over one run.
struct DriverReport {
  std::string label;
  uint64_t transactions = 0;  ///< committed
  uint64_t rollbacks = 0;
  uint64_t txn_retries = 0;  ///< transient-error aborts that were re-run
  uint64_t txn_giveups = 0;  ///< transactions dropped after the retry limit
  SimTime elapsed_us = 0;
  double tps = 0;
  /// Threaded mode only: real wall-clock duration of the measured phase and
  /// the throughput it implies. 0 under the deterministic driver (where
  /// only simulated time is meaningful).
  uint64_t wall_elapsed_us = 0;
  double wall_tps = 0;
  /// Threaded mode only: the largest lead of a measured transaction's start
  /// clock over the slowest active worker's (at most kThreadedLagWindowUs).
  SimTime max_start_lead_us = 0;

  Histogram response_us[kNumTxnTypes];  ///< per transaction type
  /// Times the transactions of each type blocked on reads (final attempt
  /// of a retried transaction), summed.
  uint64_t read_waits[kNumTxnTypes] = {};

  /// Foreground latency split by housekeeping overlap: transactions whose
  /// window saw a GC copyback or erase anywhere on the stack vs the rest.
  /// The tail-latency QoS gates compare the GC-overlap tail (p99/p999)
  /// against the clean one.
  Histogram response_gc_active_us;
  Histogram response_idle_us;

  /// Scan-latency split: Stock-Level scans that ran on an MVCC snapshot
  /// (options.snapshot_stocklevel — includes the snapshot open/flush cost)
  /// vs the ones that read latest. Empty when the mode is off.
  Histogram response_snapshot_us;
  Histogram response_latest_scan_us;

  /// Background-scheduler activity over the measured phase (all zero when
  /// the scheduler is disabled; see db::DatabaseOptions::scheduler).
  uint64_t sched_bg_pages = 0;       ///< GC + WL pages moved off-path
  uint64_t sched_bg_scrubs = 0;      ///< scrub blocks drained off-path
  uint64_t sched_bg_checkpoints = 0;
  uint64_t sched_idle_grants = 0;
  uint64_t sched_busy_skips = 0;
  uint64_t sched_preemptions = 0;

  // Device-level counters (host view).
  uint64_t host_read_ios = 0;
  uint64_t host_write_ios = 0;
  double read_4k_us = 0;   ///< mean host read latency
  double write_4k_us = 0;  ///< mean host write latency
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
  double write_amplification = 0;

  // Buffer manager.
  double buffer_hit_rate = 0;

  // Wear.
  uint32_t min_erase = 0;
  uint32_t max_erase = 0;
  double avg_erase = 0;

  double MeanResponseMs(TxnType type) const {
    return response_us[static_cast<int>(type)].Mean() / 1000.0;
  }
  double MeanReadWaits(TxnType type) const {
    const uint64_t n = response_us[static_cast<int>(type)].count();
    return n ? static_cast<double>(read_waits[static_cast<int>(type)]) /
                   static_cast<double>(n)
             : 0.0;
  }

  /// Multi-line human-readable summary.
  std::string ToString() const;
};

class TpccDriver {
 public:
  TpccDriver(TpccDb* db, const DriverOptions& options);

  /// Run the measurement interval and collect the report.
  Result<DriverReport> Run();

 private:
  /// worker_threads > 0: real threads over the same per-terminal workload.
  Result<DriverReport> RunThreaded();

  TpccDb* db_;
  DriverOptions options_;
};

}  // namespace noftl::tpcc
