// Transaction execution context.
//
// The simulation is single-threaded; concurrency among TPC-C terminals is
// modeled by giving every transaction its own local clock (`now`). Flash
// service times and queueing delays advance it; the driver interleaves
// terminals by smallest local time. Response time = now_at_commit − start.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/sim_clock.h"

namespace noftl::txn {

/// Per-transaction CPU cost model (µs). These are deliberately small — the
/// paper's workloads are I/O-bound — but nonzero so that pure-buffer-hit
/// transactions still take time.
struct CpuCosts {
  uint64_t per_row_us = 2;        ///< row read/update/insert logic
  uint64_t per_index_probe_us = 1;
  uint64_t per_txn_us = 20;       ///< begin/commit bookkeeping
};

/// Mutable context threaded through every storage call of one transaction.
struct TxnContext {
  SimTime now = 0;        ///< local clock (µs, simulated)
  SimTime start = 0;      ///< transaction begin time

  /// Nonzero = read everything as of this snapshot sequence (flash-native
  /// MVCC): page reads resolve against the mapper's retained version chains
  /// and the buffer pool caches the versioned frames separately from latest
  /// ones. Deliberately NOT reset by Begin — the snapshot outlives
  /// individual transactions; the owner clears it when releasing the
  /// snapshot handle.
  uint64_t snapshot_seq = 0;

  // I/O accounting for this transaction.
  uint64_t pages_read = 0;        ///< synchronous flash reads awaited
  uint64_t read_wait_us = 0;      ///< total time spent waiting for reads
  uint64_t read_waits = 0;        ///< times the transaction blocked on reads
  uint64_t pages_written_sync = 0;  ///< dirty evictions paid synchronously
  uint64_t write_wait_us = 0;
  uint64_t buffer_hits = 0;

  void Begin(SimTime at) {
    now = std::max(now, at);
    start = now;
    pages_read = 0;
    read_wait_us = 0;
    read_waits = 0;
    pages_written_sync = 0;
    write_wait_us = 0;
    buffer_hits = 0;
  }

  SimTime ResponseTime() const { return now - start; }

  /// Charge one blocking read wait (zero = the data was already there).
  void AddReadWait(uint64_t us) {
    if (us == 0) return;
    read_wait_us += us;
    read_waits++;
  }

  void AdvanceTo(SimTime t) { now = std::max(now, t); }
  void AddCpu(uint64_t us) { now += us; }
};

}  // namespace noftl::txn
