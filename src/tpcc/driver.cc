#include "tpcc/driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <queue>
#include <thread>
#include <vector>

#include "common/logging.h"

namespace noftl::tpcc {

namespace {
/// 100-card deck with the standard mix (clause 5.2.4.2 as commonly realized).
std::vector<TxnType> MakeDeck() {
  std::vector<TxnType> deck;
  deck.insert(deck.end(), 45, TxnType::kNewOrder);
  deck.insert(deck.end(), 43, TxnType::kPayment);
  deck.insert(deck.end(), 4, TxnType::kOrderStatus);
  deck.insert(deck.end(), 4, TxnType::kDelivery);
  deck.insert(deck.end(), 4, TxnType::kStockLevel);
  return deck;
}

/// Device counters summed over every device of the stack (one, or one per
/// shard under a sharded database).
struct DeviceTotals {
  uint64_t host_reads = 0;
  uint64_t host_writes = 0;
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
};

DeviceTotals CollectDeviceTotals(db::Database* dbase) {
  DeviceTotals t;
  dbase->ForEachDevice([&](flash::FlashDevice* dev) {
    t.host_reads += dev->stats().host_reads();
    t.host_writes += dev->stats().host_writes();
    t.gc_copybacks += dev->stats().gc_copybacks();
    t.gc_erases += dev->stats().gc_erases();
  });
  return t;
}

/// GC ops (copybacks + erases) summed over the stack, sampled before/after a
/// transaction to classify it as GC-overlapped or clean for the QoS split.
uint64_t GcOpsTotal(db::Database* dbase) {
  uint64_t ops = 0;
  dbase->ForEachDevice([&](flash::FlashDevice* dev) {
    ops += dev->stats().gc_copybacks() + dev->stats().gc_erases();
  });
  return ops;
}

/// Background-scheduler counters flattened to plain integers (the report
/// stores deltas over the measured phase).
struct SchedTotals {
  uint64_t pages = 0;
  uint64_t scrubs = 0;
  uint64_t checkpoints = 0;
  uint64_t idle_grants = 0;
  uint64_t busy_skips = 0;
  uint64_t preemptions = 0;
};

SchedTotals CollectSchedTotals(db::Database* dbase) {
  const sched::SchedulerStats s = dbase->SchedulerStatsTotal();
  SchedTotals t;
  t.pages = s.bg_gc_pages + s.bg_wl_pages;
  t.scrubs = s.bg_scrub_blocks;
  t.checkpoints = s.bg_checkpoints;
  t.idle_grants = s.idle_grants;
  t.busy_skips = s.busy_skips;
  t.preemptions = s.preemptions;
  return t;
}

void FillSchedReport(db::Database* dbase, const SchedTotals& base,
                     DriverReport* report) {
  const SchedTotals t = CollectSchedTotals(dbase);
  report->sched_bg_pages = t.pages - base.pages;
  report->sched_bg_scrubs = t.scrubs - base.scrubs;
  report->sched_bg_checkpoints = t.checkpoints - base.checkpoints;
  report->sched_idle_grants = t.idle_grants - base.idle_grants;
  report->sched_busy_skips = t.busy_skips - base.busy_skips;
  report->sched_preemptions = t.preemptions - base.preemptions;
}

/// Fill the device/buffer/wear section of the report: counters relative to
/// `base`, latency and wear merged over every device of the stack.
void FillDeviceReport(db::Database* dbase, const DeviceTotals& base,
                      DriverReport* report) {
  const DeviceTotals totals = CollectDeviceTotals(dbase);
  report->host_read_ios = totals.host_reads - base.host_reads;
  report->host_write_ios = totals.host_writes - base.host_writes;
  report->gc_copybacks = totals.gc_copybacks - base.gc_copybacks;
  report->gc_erases = totals.gc_erases - base.gc_erases;
  Histogram read_lat;
  Histogram write_lat;
  uint64_t programs = 0;
  uint64_t copybacks = 0;
  uint32_t min_erase = ~0u;
  uint32_t max_erase = 0;
  double avg_sum = 0;
  size_t devices = 0;
  dbase->ForEachDevice([&](flash::FlashDevice* dev) {
    read_lat.Merge(dev->HostReadLatency());
    write_lat.Merge(dev->HostWriteLatency());
    programs += dev->stats().total_programs();
    copybacks += dev->stats().total_copybacks();
    uint32_t mn = 0, mx = 0;
    double avg = 0;
    dev->WearSummary(&mn, &mx, &avg);
    min_erase = std::min(min_erase, mn);
    max_erase = std::max(max_erase, mx);
    avg_sum += avg;
    devices++;
  });
  report->read_4k_us = read_lat.Mean();
  report->write_4k_us = write_lat.Mean();
  report->write_amplification =
      totals.host_writes
          ? static_cast<double>(programs + copybacks) /
                static_cast<double>(totals.host_writes)
          : 0.0;
  report->buffer_hit_rate = dbase->buffer()->stats().HitRate();
  report->min_erase = min_erase == ~0u ? 0 : min_erase;
  report->max_erase = max_erase;
  report->avg_erase = devices ? avg_sum / static_cast<double>(devices) : 0;
}
}  // namespace

std::string DriverReport::ToString() const {
  char buf[1280];
  snprintf(
      buf, sizeof(buf),
      "[%s]\n"
      "  TPS                 %10.2f\n"
      "  Transactions        %10llu (+%llu rollbacks)\n"
      "  Elapsed (sim s)     %10.2f\n"
      "  READ 4KB (us)       %10.2f\n"
      "  WRITE 4KB (us)      %10.2f\n"
      "  NewOrder TRX (ms)   %10.2f\n"
      "  Payment TRX (ms)    %10.2f\n"
      "  StockLevel TRX (ms) %10.2f\n"
      "  Host READ I/Os      %10llu\n"
      "  Host WRITE I/Os     %10llu\n"
      "  GC COPYBACKs        %10llu\n"
      "  GC ERASEs           %10llu\n"
      "  Write amplification %10.2f\n"
      "  Buffer hit rate     %10.3f\n"
      "  Erase counts        min %u / avg %.1f / max %u\n"
      "  Fg p99 GC/idle (us) %10.1f / %.1f\n"
      "  Sched bg pages      %10llu (%llu preemptions)\n"
      "  Snap/latest scan ms %10.2f / %.2f (%llu snapshot scans)",
      label.c_str(), tps, static_cast<unsigned long long>(transactions),
      static_cast<unsigned long long>(rollbacks),
      static_cast<double>(elapsed_us) / 1e6, read_4k_us, write_4k_us,
      MeanResponseMs(TxnType::kNewOrder), MeanResponseMs(TxnType::kPayment),
      MeanResponseMs(TxnType::kStockLevel),
      static_cast<unsigned long long>(host_read_ios),
      static_cast<unsigned long long>(host_write_ios),
      static_cast<unsigned long long>(gc_copybacks),
      static_cast<unsigned long long>(gc_erases), write_amplification,
      buffer_hit_rate, min_erase, avg_erase, max_erase,
      response_gc_active_us.P99(), response_idle_us.P99(),
      static_cast<unsigned long long>(sched_bg_pages),
      static_cast<unsigned long long>(sched_preemptions),
      response_snapshot_us.Mean() / 1000.0,
      response_latest_scan_us.Mean() / 1000.0,
      static_cast<unsigned long long>(response_snapshot_us.count()));
  return buf;
}

TpccDriver::TpccDriver(TpccDb* db, const DriverOptions& options)
    : db_(db), options_(options) {}

Result<DriverReport> TpccDriver::Run() {
  if (options_.worker_threads > 0) return RunThreaded();
  const TpccScale& scale = db_->scale();
  Rng rng(options_.seed);
  TpccTransactions txns(db_, db_->rng(), db_->nurand());
  txns.SetBatchedIo(options_.batched_io);

  struct Terminal {
    txn::TxnContext ctx;
    int32_t home_w;
    int32_t stock_d;
    std::vector<TxnType> deck;
    size_t deck_pos = 0;
    uint64_t executed = 0;
    // per_terminal_streams: this terminal's private stream + transactions.
    std::unique_ptr<Rng> rng;
    std::unique_ptr<NURand> nurand;
    std::unique_ptr<TpccTransactions> txns;
  };
  std::vector<Terminal> terminals(options_.terminals);
  const SimTime start_time = db_->load_end_time();
  // Per-terminal quota: with private streams every terminal executes exactly
  // this many transactions, so the committed work is independent of how the
  // terminals interleave on the simulated clock.
  const uint64_t quota =
      (options_.warmup_transactions + options_.max_transactions +
       options_.terminals - 1) /
      options_.terminals;
  for (uint32_t i = 0; i < options_.terminals; i++) {
    Terminal& t = terminals[i];
    t.ctx.now = start_time;
    t.home_w = static_cast<int32_t>(i % scale.warehouses) + 1;
    t.stock_d =
        static_cast<int32_t>(i % scale.districts_per_warehouse) + 1;
    t.deck = MakeDeck();
    if (options_.per_terminal_streams) {
      t.rng = std::make_unique<Rng>(options_.seed * 1000003ull + i);
      t.nurand = std::make_unique<NURand>(t.rng.get(), *db_->nurand());
      t.txns = std::make_unique<TpccTransactions>(db_, t.rng.get(),
                                                  t.nurand.get());
      t.txns->SetBatchedIo(options_.batched_io);
    }
    Rng& shuffle_rng = options_.per_terminal_streams ? *t.rng : rng;
    for (size_t k = t.deck.size(); k > 1; k--) {
      std::swap(t.deck[k - 1], t.deck[shuffle_rng.Below(k)]);
    }
  }

  // Event order: always run the terminal with the smallest local clock.
  using QEntry = std::pair<SimTime, uint32_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  for (uint32_t i = 0; i < options_.terminals; i++) queue.push({start_time, i});

  DriverReport report;
  DeviceTotals base = CollectDeviceTotals(db_->database());
  SchedTotals sched_base = CollectSchedTotals(db_->database());

  uint64_t total = 0;
  bool measuring = options_.warmup_transactions == 0;
  SimTime measure_start = start_time;
  SimTime end_time = start_time;
  // With private streams the run ends when every terminal exhausted its
  // quota (the queue drains); otherwise after the global transaction count.
  const uint64_t total_target =
      options_.per_terminal_streams
          ? quota * options_.terminals
          : options_.warmup_transactions + options_.max_transactions;
  while (!queue.empty() && total < total_target) {
    if (!measuring && total >= options_.warmup_transactions) {
      // Warmup done: discard everything recorded so far and restart the
      // measurement window at the current front of the event queue.
      measuring = true;
      db_->database()->ResetDeviceStats();
      db_->database()->buffer()->ResetStats();
      base = DeviceTotals{};
      sched_base = CollectSchedTotals(db_->database());
      report = DriverReport{};
      measure_start = queue.top().first;
      end_time = measure_start;
    }
    const auto [when, idx] = queue.top();
    if (measuring && options_.max_sim_time_us != 0 &&
        when - measure_start >= options_.max_sim_time_us) {
      break;
    }
    queue.pop();
    Terminal& t = terminals[idx];

    if (t.deck_pos == t.deck.size()) {
      Rng& shuffle_rng = options_.per_terminal_streams ? *t.rng : rng;
      for (size_t k = t.deck.size(); k > 1; k--) {
        std::swap(t.deck[k - 1], t.deck[shuffle_rng.Below(k)]);
      }
      t.deck_pos = 0;
    }
    const TxnType type = t.deck[t.deck_pos++];
    TpccTransactions& terminal_txns =
        options_.per_terminal_streams ? *t.txns : txns;

    // Run-time growth (new order/order-line/history extents) keeps following
    // the terminal's home warehouse under by-key shard placement.
    db_->database()->SetShardPlacementHint(static_cast<uint64_t>(t.home_w));
    const uint64_t gc_before =
        measuring ? GcOpsTotal(db_->database()) : 0;
    t.ctx.Begin(when);
    bool committed = true;
    bool ran_on_snapshot = false;
    Status s;
    uint32_t attempt = 0;
    for (;;) {
      committed = true;
      switch (type) {
        case TxnType::kNewOrder:
          s = terminal_txns.NewOrder(&t.ctx, t.home_w, &committed);
          break;
        case TxnType::kPayment:
          s = terminal_txns.Payment(&t.ctx, t.home_w);
          break;
        case TxnType::kOrderStatus:
          s = terminal_txns.OrderStatus(&t.ctx, t.home_w);
          break;
        case TxnType::kDelivery:
          s = terminal_txns.Delivery(&t.ctx, t.home_w);
          break;
        case TxnType::kStockLevel: {
          // Snapshot mode: pin a version horizon for the scan (best
          // effort — the FTL backend or a failed flush falls back to
          // latest reads). The open's flush cost is charged to the scan.
          uint64_t snap = 0;
          if (options_.snapshot_stocklevel) {
            auto opened = db_->database()->OpenSnapshot(&t.ctx);
            if (opened.ok()) {
              snap = *opened;
              t.ctx.snapshot_seq = snap;
              ran_on_snapshot = true;
            }
          }
          s = terminal_txns.StockLevel(&t.ctx, t.home_w, t.stock_d);
          if (snap != 0) {
            t.ctx.snapshot_seq = 0;
            db_->database()->ReleaseSnapshot(snap);
          }
          break;
        }
      }
      if (s.ok()) break;
      // Abort-and-retry: IOError here means the storage stack itself gave
      // up (the mapper's bounded read retries were exhausted); Busy means a
      // contended resource. Both are transient at the workload level — back
      // off on this terminal's clock and re-run. Anything else (corruption,
      // DataLoss, programming errors) aborts the whole run.
      if ((!s.IsIOError() && !s.IsBusy()) || options_.txn_retry_limit == 0) {
        return s;
      }
      if (attempt >= options_.txn_retry_limit) {
        if (measuring) report.txn_giveups++;
        committed = false;
        s = Status::OK();
        break;
      }
      attempt++;
      if (measuring) report.txn_retries++;
      t.ctx.Begin(t.ctx.now + options_.txn_retry_backoff_us * attempt);
    }
    if (!s.ok()) return s;

    if (measuring) {
      report.response_us[static_cast<int>(type)].Record(t.ctx.ResponseTime());
      const bool gc_overlap = GcOpsTotal(db_->database()) != gc_before;
      (gc_overlap ? report.response_gc_active_us : report.response_idle_us)
          .Record(t.ctx.ResponseTime());
      if (type == TxnType::kStockLevel) {
        (ran_on_snapshot ? report.response_snapshot_us
                         : report.response_latest_scan_us)
            .Record(t.ctx.ResponseTime());
      }
      if (committed) {
        report.transactions++;
      } else {
        report.rollbacks++;
      }
      end_time = std::max(end_time, t.ctx.now);
    }
    total++;
    t.executed++;
    if (!options_.per_terminal_streams || t.executed < quota) {
      // The terminal keys/thinks before its next transaction; the gap is
      // exactly where a background tick finds idle dies.
      queue.push({t.ctx.now + options_.think_time_us, idx});
    }
    // Idle-time background services: one deterministic scheduling pass,
    // the synchronous counterpart of the service thread. No-op (and
    // digest-invisible) when the scheduler is disabled. Runs after the
    // GC-overlap sample above so background relocations are not attributed
    // to the transaction — and only when this transaction's end time
    // precedes every pending terminal event: die-time queues serve in call
    // order, so ticking while an earlier-clocked transaction is still
    // unexecuted would insert background work ahead of it.
    if (queue.empty() || t.ctx.now <= queue.top().first) {
      db_->database()->TickSchedulers(t.ctx.now);
    }

    if (options_.global_wl_interval != 0 &&
        total % options_.global_wl_interval == 0 &&
        db_->database()->regions() != nullptr) {
      bool swapped = false;
      Status wl = db_->database()->regions()->RebalanceWear(t.ctx.now, &swapped);
      if (!wl.ok()) return wl;
    }
  }

  report.elapsed_us = end_time - measure_start;
  report.tps = report.elapsed_us
                   ? static_cast<double>(report.transactions) /
                         (static_cast<double>(report.elapsed_us) / 1e6)
                   : 0;

  db_->database()->ClearShardPlacementHint();
  FillDeviceReport(db_->database(), base, &report);
  FillSchedReport(db_->database(), sched_base, &report);
  return report;
}

Result<DriverReport> TpccDriver::RunThreaded() {
  const TpccScale& scale = db_->scale();
  if (!options_.per_terminal_streams) {
    return Status::InvalidArgument(
        "worker_threads requires per_terminal_streams (the committed work "
        "must not depend on thread interleaving)");
  }
  if (options_.global_wl_interval != 0) {
    return Status::InvalidArgument(
        "global_wl_interval is not supported with worker_threads");
  }
  if (options_.max_sim_time_us != 0) {
    return Status::InvalidArgument(
        "max_sim_time_us is not supported with worker_threads");
  }

  // Terminal setup is identical to the deterministic driver — same
  // per-terminal seeds, deck shuffles and quotas — so every terminal
  // executes the exact same transaction stream and the committed work is
  // digest-equal to a worker_threads=0 run.
  struct Terminal {
    txn::TxnContext ctx;
    int32_t home_w = 0;
    int32_t stock_d = 0;
    std::vector<TxnType> deck;
    size_t deck_pos = 0;
    std::unique_ptr<Rng> rng;
    std::unique_ptr<NURand> nurand;
    std::unique_ptr<TpccTransactions> txns;
  };
  // One mutex per warehouse (1-indexed): a transaction locks the sorted set
  // of warehouses it touches before its first data access, so conflicting
  // row read-modify-writes are serialized while the storage stack below
  // runs concurrently. A deque: the ranked Mutex is neither default-
  // constructible nor movable.
  std::deque<noftl::Mutex> wlocks;
  for (uint32_t w = 0; w <= scale.warehouses; w++) {
    wlocks.emplace_back(noftl::LockRank::kWarehouse);
  }
  std::vector<Terminal> terminals(options_.terminals);
  const SimTime start_time = db_->load_end_time();
  const uint64_t quota =
      (options_.warmup_transactions + options_.max_transactions +
       options_.terminals - 1) /
      options_.terminals;
  for (uint32_t i = 0; i < options_.terminals; i++) {
    Terminal& t = terminals[i];
    t.ctx.now = start_time;
    t.home_w = static_cast<int32_t>(i % scale.warehouses) + 1;
    t.stock_d = static_cast<int32_t>(i % scale.districts_per_warehouse) + 1;
    t.deck = MakeDeck();
    t.rng = std::make_unique<Rng>(options_.seed * 1000003ull + i);
    t.nurand = std::make_unique<NURand>(t.rng.get(), *db_->nurand());
    t.txns =
        std::make_unique<TpccTransactions>(db_, t.rng.get(), t.nurand.get());
    t.txns->SetBatchedIo(options_.batched_io);
    t.txns->SetWarehouseLocks(&wlocks);
    for (size_t k = t.deck.size(); k > 1; k--) {
      std::swap(t.deck[k - 1], t.deck[t.rng->Below(k)]);
    }
  }

  // The warmup share of each terminal's quota (the deterministic driver
  // warms up globally; per terminal it is the same count on average).
  const uint64_t warmup_quota = std::min<uint64_t>(
      quota, (options_.warmup_transactions + options_.terminals - 1) /
                 options_.terminals);
  const uint32_t workers =
      std::min<uint32_t>(options_.worker_threads, options_.terminals);

  struct WorkerTally {
    uint64_t transactions = 0;
    uint64_t rollbacks = 0;
    uint64_t txn_retries = 0;
    uint64_t txn_giveups = 0;
    Histogram response_us[kNumTxnTypes];
    Histogram response_gc_active_us;
    Histogram response_idle_us;
    Histogram response_snapshot_us;
    Histogram response_latest_scan_us;
    Status error;
  };

  // Execute one transaction of `t`, accounting into `tally` when measuring.
  // Returns false on a non-transient error (stored in tally->error).
  auto run_one = [&](Terminal& t, WorkerTally* tally, bool measuring) {
    if (t.deck_pos == t.deck.size()) {
      for (size_t k = t.deck.size(); k > 1; k--) {
        std::swap(t.deck[k - 1], t.deck[t.rng->Below(k)]);
      }
      t.deck_pos = 0;
    }
    const TxnType type = t.deck[t.deck_pos++];
    // GC-overlap sample: racy across workers (another worker's GC window can
    // bleed in), which only errs toward the GC-active bucket — conservative
    // for the tail gates.
    const uint64_t gc_before = measuring ? GcOpsTotal(db_->database()) : 0;
    // The placement hint is thread-local: each worker pins run-time extent
    // growth to the terminal's home warehouse, as the deterministic driver
    // does.
    db_->database()->SetShardPlacementHint(static_cast<uint64_t>(t.home_w));
    t.ctx.Begin(t.ctx.now);
    bool committed = true;
    bool ran_on_snapshot = false;
    Status s;
    uint32_t attempt = 0;
    for (;;) {
      committed = true;
      switch (type) {
        case TxnType::kNewOrder:
          s = t.txns->NewOrder(&t.ctx, t.home_w, &committed);
          break;
        case TxnType::kPayment:
          s = t.txns->Payment(&t.ctx, t.home_w);
          break;
        case TxnType::kOrderStatus:
          s = t.txns->OrderStatus(&t.ctx, t.home_w);
          break;
        case TxnType::kDelivery:
          s = t.txns->Delivery(&t.ctx, t.home_w);
          break;
        case TxnType::kStockLevel: {
          // Snapshot scan concurrent with live writers: the other workers
          // keep superseding pages while this scan reads the pinned
          // versions the mappers retain for it.
          uint64_t snap = 0;
          if (options_.snapshot_stocklevel) {
            auto opened = db_->database()->OpenSnapshot(&t.ctx);
            if (opened.ok()) {
              snap = *opened;
              t.ctx.snapshot_seq = snap;
              ran_on_snapshot = true;
            }
          }
          s = t.txns->StockLevel(&t.ctx, t.home_w, t.stock_d);
          if (snap != 0) {
            t.ctx.snapshot_seq = 0;
            db_->database()->ReleaseSnapshot(snap);
          }
          break;
        }
      }
      if (s.ok()) break;
      if ((!s.IsIOError() && !s.IsBusy()) || options_.txn_retry_limit == 0) {
        tally->error = s;
        return false;
      }
      if (attempt >= options_.txn_retry_limit) {
        if (measuring) tally->txn_giveups++;
        committed = false;
        break;
      }
      attempt++;
      if (measuring) tally->txn_retries++;
      t.ctx.Begin(t.ctx.now + options_.txn_retry_backoff_us * attempt);
    }
    if (measuring) {
      tally->response_us[static_cast<int>(type)].Record(t.ctx.ResponseTime());
      const bool gc_overlap = GcOpsTotal(db_->database()) != gc_before;
      (gc_overlap ? tally->response_gc_active_us : tally->response_idle_us)
          .Record(t.ctx.ResponseTime());
      if (type == TxnType::kStockLevel) {
        (ran_on_snapshot ? tally->response_snapshot_us
                         : tally->response_latest_scan_us)
            .Record(t.ctx.ResponseTime());
      }
      if (committed) {
        tally->transactions++;
      } else {
        tally->rollbacks++;
      }
    }
    return true;
  };

  // Run phase. Terminals are dealt round-robin to workers. Each worker runs
  // its smallest-clock terminal next, as the deterministic driver does
  // globally, and starts it only once that clock is within
  // kThreadedLagWindowUs of the slowest active worker's: every worker
  // publishes the start clock of the transaction it runs (or waits to run)
  // next, and blocks on a condition variable while it leads the minimum by
  // more than the window. Clocks stay local and are only published between
  // transactions — the local-clock, delayed-update discipline of an
  // event-driven simulation — so a lagging worker's I/O never queues behind
  // dies the others pushed far ahead. The minimum worker always proceeds,
  // and a finished worker leaves the minimum, so the gate cannot deadlock.
  // Returns the largest lead over the minimum that any start saw.
  auto run_phase = [&](uint64_t txns_per_terminal, bool measuring,
                       std::vector<WorkerTally>* tallies) {
    constexpr SimTime kIdle = ~SimTime{0};
    constexpr size_t kNone = ~size_t{0};
    noftl::Mutex gate_mu(noftl::LockRank::kLeafStats);
    std::condition_variable_any gate_cv;
    std::vector<SimTime> next_start(workers, kIdle);
    SimTime max_lead = 0;
    std::vector<uint64_t> left(terminals.size(), txns_per_terminal);
    // Worker k's next terminal: its smallest clock with quota left.
    auto pick = [&](uint32_t k) {
      size_t best = kNone;
      for (size_t i = k; i < terminals.size(); i += workers) {
        if (left[i] != 0 && (best == kNone || terminals[i].ctx.now <
                                                  terminals[best].ctx.now)) {
          best = i;
        }
      }
      return best;
    };
    auto start_of = [&](size_t i) {
      return i == kNone ? kIdle : terminals[i].ctx.now;
    };
    auto slowest = [&] {
      return *std::min_element(next_start.begin(), next_start.end());
    };
    // Publish every worker's first start before any thread runs, so no
    // worker measures its lead against a partial minimum.
    for (uint32_t k = 0; k < workers; k++) next_start[k] = start_of(pick(k));
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (uint32_t k = 0; k < workers; k++) {
      pool.emplace_back([&, k] {
        WorkerTally& tally = (*tallies)[k];
        for (size_t i = pick(k); i != kNone;) {
          {
            MutexLock lock(gate_mu);
            while (next_start[k] > slowest() + kThreadedLagWindowUs) {
              gate_cv.wait(lock);
            }
            max_lead = std::max(max_lead, next_start[k] - slowest());
          }
          const SimTime before = terminals[i].ctx.now;
          const bool ok = run_one(terminals[i], &tally, measuring);
          left[i]--;
          const SimTime took = terminals[i].ctx.now - before;
          // Publish the next start (a failed transaction stops this worker)
          // before any pacing sleep, so the others never wait out the sleep.
          i = ok ? pick(k) : kNone;
          {
            MutexLock lock(gate_mu);
            next_start[k] = start_of(i);
            gate_cv.notify_all();
          }
          if (measuring && options_.wall_pace > 0 && took > 0) {
            // Closed-loop pacing: block for this transaction's simulated
            // duration (scaled). No lock is held, so other workers'
            // transactions overlap this wait exactly as real device I/O
            // would.
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(
                    static_cast<double>(took) * options_.wall_pace));
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    return max_lead;
  };
  auto first_error = [](const std::vector<WorkerTally>& tallies) {
    for (const WorkerTally& t : tallies) {
      if (!t.error.ok()) return t.error;
    }
    return Status::OK();
  };

  std::vector<WorkerTally> warmup_tallies(workers);
  run_phase(warmup_quota, /*measuring=*/false, &warmup_tallies);
  NOFTL_RETURN_IF_ERROR(first_error(warmup_tallies));

  // Warmup done (all workers joined): restart the measurement window.
  db_->database()->ResetDeviceStats();
  db_->database()->buffer()->ResetStats();
  SimTime measure_start = ~SimTime{0};
  for (const Terminal& t : terminals) {
    measure_start = std::min(measure_start, t.ctx.now);
  }

  std::vector<WorkerTally> tallies(workers);
  const SchedTotals sched_base = CollectSchedTotals(db_->database());
  const auto wall_start = std::chrono::steady_clock::now();
  const SimTime max_lead =
      run_phase(quota - warmup_quota, /*measuring=*/true, &tallies);
  const auto wall_end = std::chrono::steady_clock::now();
  NOFTL_RETURN_IF_ERROR(first_error(tallies));
  db_->database()->ClearShardPlacementHint();

  DriverReport report;
  report.max_start_lead_us = max_lead;
  SimTime end_time = measure_start;
  for (const Terminal& t : terminals) {
    end_time = std::max(end_time, t.ctx.now);
  }
  for (const WorkerTally& tally : tallies) {
    report.transactions += tally.transactions;
    report.rollbacks += tally.rollbacks;
    report.txn_retries += tally.txn_retries;
    report.txn_giveups += tally.txn_giveups;
    for (int ty = 0; ty < kNumTxnTypes; ty++) {
      report.response_us[ty].Merge(tally.response_us[ty]);
    }
    report.response_gc_active_us.Merge(tally.response_gc_active_us);
    report.response_idle_us.Merge(tally.response_idle_us);
    report.response_snapshot_us.Merge(tally.response_snapshot_us);
    report.response_latest_scan_us.Merge(tally.response_latest_scan_us);
  }
  report.elapsed_us = end_time - measure_start;
  report.tps = report.elapsed_us
                   ? static_cast<double>(report.transactions) /
                         (static_cast<double>(report.elapsed_us) / 1e6)
                   : 0;
  report.wall_elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end -
                                                            wall_start)
          .count());
  report.wall_tps =
      report.wall_elapsed_us
          ? static_cast<double>(report.transactions) /
                (static_cast<double>(report.wall_elapsed_us) / 1e6)
          : 0;
  FillDeviceReport(db_->database(), DeviceTotals{}, &report);
  FillSchedReport(db_->database(), sched_base, &report);
  return report;
}

}  // namespace noftl::tpcc
