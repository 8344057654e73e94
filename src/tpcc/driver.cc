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

/// One terminal: home warehouse, Stock-Level district, card deck and a
/// private rng/NURand stream (same NURand C constants as the loader) behind
/// its own transactions object. With private streams and fixed quotas the
/// executed workload does not depend on how terminals interleave.
struct Terminal {
  txn::TxnContext ctx;
  int32_t home_w = 0;
  int32_t stock_d = 0;
  std::vector<TxnType> deck;
  size_t deck_pos = 0;
  uint64_t left = 0;  ///< transactions still to run in the current phase
  std::unique_ptr<Rng> rng;
  std::unique_ptr<NURand> nurand;
  std::unique_ptr<TpccTransactions> txns;
};

std::vector<Terminal> MakeTerminals(TpccDb* db, const DriverOptions& options) {
  const TpccScale& scale = db->scale();
  std::vector<Terminal> terminals(options.terminals);
  for (uint32_t i = 0; i < options.terminals; i++) {
    Terminal& t = terminals[i];
    t.ctx.now = db->load_end_time();
    t.home_w = static_cast<int32_t>(i % scale.warehouses) + 1;
    t.stock_d = static_cast<int32_t>(i % scale.districts_per_warehouse) + 1;
    t.deck = MakeDeck();
    t.deck_pos = t.deck.size();  // the first draw shuffles
    t.rng = std::make_unique<Rng>(options.seed * 1000003ull + i);
    t.nurand = std::make_unique<NURand>(t.rng.get(), *db->nurand());
    t.txns =
        std::make_unique<TpccTransactions>(db, t.rng.get(), t.nurand.get());
    t.txns->SetBatchedIo(options.batched_io);
  }
  return terminals;
}

/// Every terminal runs this many transactions, warmup included: the run
/// length is (warmup + max) rounded up to whole per-terminal quotas.
uint64_t TerminalQuota(const DriverOptions& options) {
  return (options.warmup_transactions + options.max_transactions +
          options.terminals - 1) /
         options.terminals;
}

double PerSecond(uint64_t count, uint64_t elapsed_us) {
  return elapsed_us ? static_cast<double>(count) /
                          (static_cast<double>(elapsed_us) / 1e6)
                    : 0;
}

/// Outcomes and latencies of executed transactions: one for the
/// deterministic loop, one per worker thread, merged into the report.
struct Tally {
  uint64_t transactions = 0;
  uint64_t rollbacks = 0;
  uint64_t txn_retries = 0;
  uint64_t txn_giveups = 0;
  Histogram response_us[kNumTxnTypes];
  uint64_t read_waits[kNumTxnTypes] = {};
  Histogram response_gc_active_us;
  Histogram response_idle_us;
  Histogram response_snapshot_us;
  Histogram response_latest_scan_us;

  void MergeInto(DriverReport* report) const {
    report->transactions += transactions;
    report->rollbacks += rollbacks;
    report->txn_retries += txn_retries;
    report->txn_giveups += txn_giveups;
    for (int ty = 0; ty < kNumTxnTypes; ty++) {
      report->response_us[ty].Merge(response_us[ty]);
      report->read_waits[ty] += read_waits[ty];
    }
    report->response_gc_active_us.Merge(response_gc_active_us);
    report->response_idle_us.Merge(response_idle_us);
    report->response_snapshot_us.Merge(response_snapshot_us);
    report->response_latest_scan_us.Merge(response_latest_scan_us);
  }
};

/// The driver step: run terminal `t`'s next transaction from its deck,
/// starting at `when`, and record it into `tally`. Returns a non-transient
/// error, which ends the run.
Status RunStep(TpccDb* db, const DriverOptions& options, Terminal* t,
               SimTime when, Tally* tally) {
  if (t->deck_pos == t->deck.size()) {
    for (size_t k = t->deck.size(); k > 1; k--) {
      std::swap(t->deck[k - 1], t->deck[t->rng->Below(k)]);
    }
    t->deck_pos = 0;
  }
  const TxnType type = t->deck[t->deck_pos++];

  // Run-time growth (new order/order-line/history extents) keeps following
  // the terminal's home warehouse under by-key shard placement. The hint is
  // thread-local, so each worker pins its own terminal's warehouse.
  db->database()->SetShardPlacementHint(static_cast<uint64_t>(t->home_w));
  // GC-overlap sample. Under worker threads it is racy (another worker's GC
  // window can bleed in), which only errs toward the GC-active bucket —
  // conservative for the tail gates.
  const uint64_t gc_before = GcOpsTotal(db->database());
  t->ctx.Begin(when);
  bool committed = true;
  bool ran_on_snapshot = false;
  uint32_t attempt = 0;
  for (;;) {
    Status s;
    committed = true;
    switch (type) {
      case TxnType::kNewOrder:
        s = t->txns->NewOrder(&t->ctx, t->home_w, &committed);
        break;
      case TxnType::kPayment:
        s = t->txns->Payment(&t->ctx, t->home_w);
        break;
      case TxnType::kOrderStatus:
        s = t->txns->OrderStatus(&t->ctx, t->home_w);
        break;
      case TxnType::kDelivery:
        s = t->txns->Delivery(&t->ctx, t->home_w);
        break;
      case TxnType::kStockLevel: {
        // Snapshot mode: pin a version horizon for the scan (best
        // effort — the FTL backend or a failed flush falls back to
        // latest reads). The open's flush cost is charged to the scan;
        // other terminals keep superseding pages while it reads the
        // pinned versions the mappers retain for it.
        uint64_t snap = 0;
        if (options.snapshot_stocklevel) {
          auto opened = db->database()->OpenSnapshot(&t->ctx);
          if (opened.ok()) {
            snap = *opened;
            t->ctx.snapshot_seq = snap;
            ran_on_snapshot = true;
          }
        }
        s = t->txns->StockLevel(&t->ctx, t->home_w, t->stock_d);
        if (snap != 0) {
          t->ctx.snapshot_seq = 0;
          db->database()->ReleaseSnapshot(snap);
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
    if ((!s.IsIOError() && !s.IsBusy()) || options.txn_retry_limit == 0) {
      return s;
    }
    if (attempt >= options.txn_retry_limit) {
      tally->txn_giveups++;
      committed = false;
      break;
    }
    attempt++;
    tally->txn_retries++;
    t->ctx.Begin(t->ctx.now + options.txn_retry_backoff_us * attempt);
  }

  const SimTime response = t->ctx.ResponseTime();
  tally->response_us[static_cast<int>(type)].Record(response);
  tally->read_waits[static_cast<int>(type)] += t->ctx.read_waits;
  const bool gc_overlap = GcOpsTotal(db->database()) != gc_before;
  (gc_overlap ? tally->response_gc_active_us : tally->response_idle_us)
      .Record(response);
  if (type == TxnType::kStockLevel) {
    (ran_on_snapshot ? tally->response_snapshot_us
                     : tally->response_latest_scan_us)
        .Record(response);
  }
  if (committed) {
    tally->transactions++;
  } else {
    tally->rollbacks++;
  }
  return Status::OK();
}

/// Clears the calling thread's shard placement hint on every exit path.
struct PlacementHintGuard {
  db::Database* dbase;
  ~PlacementHintGuard() { dbase->ClearShardPlacementHint(); }
};
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
  const PlacementHintGuard clear_hint{db_->database()};
  if (options_.worker_threads > 0) return RunThreaded();
  std::vector<Terminal> terminals = MakeTerminals(db_, options_);
  const SimTime start_time = db_->load_end_time();
  const uint64_t quota = TerminalQuota(options_);

  // Event order: always run the terminal with the smallest local clock.
  using QEntry = std::pair<SimTime, uint32_t>;
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> queue;
  for (uint32_t i = 0; i < options_.terminals && quota != 0; i++) {
    terminals[i].left = quota;
    queue.push({start_time, i});
  }

  Tally tally;
  DeviceTotals base = CollectDeviceTotals(db_->database());
  SchedTotals sched_base = CollectSchedTotals(db_->database());

  uint64_t total = 0;
  bool measuring = options_.warmup_transactions == 0;
  SimTime measure_start = start_time;
  SimTime end_time = start_time;
  // The run ends when every terminal has used up its quota.
  while (!queue.empty()) {
    if (!measuring && total >= options_.warmup_transactions) {
      // Warmup done: discard everything recorded so far and restart the
      // measurement window at the current front of the event queue.
      measuring = true;
      db_->database()->ResetDeviceStats();
      db_->database()->buffer()->ResetStats();
      base = DeviceTotals{};
      sched_base = CollectSchedTotals(db_->database());
      tally = Tally{};
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
    NOFTL_RETURN_IF_ERROR(RunStep(db_, options_, &t, when, &tally));
    if (measuring) end_time = std::max(end_time, t.ctx.now);
    total++;
    if (--t.left != 0) {
      // The terminal keys/thinks before its next transaction; the gap is
      // exactly where a background tick finds idle dies.
      queue.push({t.ctx.now + options_.think_time_us, idx});
    }
    // Idle-time background services: one deterministic scheduling pass,
    // the synchronous counterpart of the service thread. No-op (and
    // digest-invisible) when the scheduler is disabled. Runs after the
    // step's GC-overlap sample so background relocations are not
    // attributed to the transaction — and only when this transaction's end
    // time precedes every pending terminal event: a background op booked at
    // `now` occupies die time that an earlier-clocked transaction, not yet
    // run, would otherwise backfill.
    if (queue.empty() || t.ctx.now <= queue.top().first) {
      db_->database()->TickSchedulers(t.ctx.now);
    }

    if (options_.global_wl_interval != 0 &&
        total % options_.global_wl_interval == 0) {
      // Every shard levels wear across its own dies.
      shard::ShardRouter* router = db_->database()->shards();
      for (size_t s = 0; s < router->shard_count(); s++) {
        region::RegionManager* rm = router->regions(s);
        if (rm == nullptr) continue;
        bool swapped = false;
        NOFTL_RETURN_IF_ERROR(rm->RebalanceWear(t.ctx.now, &swapped));
      }
    }
  }

  DriverReport report;
  tally.MergeInto(&report);
  report.elapsed_us = end_time - measure_start;
  report.tps = PerSecond(report.transactions, report.elapsed_us);
  FillDeviceReport(db_->database(), base, &report);
  FillSchedReport(db_->database(), sched_base, &report);
  return report;
}

Result<DriverReport> TpccDriver::RunThreaded() {
  if (options_.global_wl_interval != 0) {
    return Status::InvalidArgument(
        "global_wl_interval is not supported with worker_threads");
  }
  if (options_.max_sim_time_us != 0) {
    return Status::InvalidArgument(
        "max_sim_time_us is not supported with worker_threads");
  }

  // The deterministic driver's terminals — same per-terminal seeds, decks
  // and quotas — so every terminal executes the exact same transaction
  // stream and the committed work is digest-equal to a worker_threads=0 run.
  std::vector<Terminal> terminals = MakeTerminals(db_, options_);
  // One mutex per warehouse (1-indexed): a transaction locks the sorted set
  // of warehouses it touches before its first data access, so conflicting
  // row read-modify-writes are serialized while the storage stack below
  // runs concurrently. A deque: the ranked Mutex is neither default-
  // constructible nor movable.
  std::deque<noftl::Mutex> wlocks;
  for (uint32_t w = 0; w <= db_->scale().warehouses; w++) {
    wlocks.emplace_back(noftl::LockRank::kWarehouse);
  }
  for (Terminal& t : terminals) t.txns->SetWarehouseLocks(&wlocks);
  const uint64_t quota = TerminalQuota(options_);

  // The warmup share of each terminal's quota (the deterministic driver
  // warms up globally; per terminal it is the same count on average).
  const uint64_t warmup_quota = std::min<uint64_t>(
      quota, (options_.warmup_transactions + options_.terminals - 1) /
                 options_.terminals);
  const uint32_t workers =
      std::min<uint32_t>(options_.worker_threads, options_.terminals);

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
  // Merges the workers' tallies and the largest lead over the minimum that
  // any start saw into `report`.
  auto run_phase = [&](uint64_t txns_per_terminal, bool measuring,
                       DriverReport* report) {
    constexpr SimTime kIdle = ~SimTime{0};
    constexpr size_t kNone = ~size_t{0};
    noftl::Mutex gate_mu(noftl::LockRank::kLeafStats);
    std::condition_variable_any gate_cv;
    std::vector<SimTime> next_start(workers, kIdle);
    SimTime max_lead = 0;
    std::vector<Tally> tallies(workers);
    std::vector<Status> errors(workers);
    for (Terminal& t : terminals) t.left = txns_per_terminal;
    // Worker k's next terminal: its smallest clock with quota left.
    auto pick = [&](uint32_t k) {
      size_t best = kNone;
      for (size_t i = k; i < terminals.size(); i += workers) {
        if (terminals[i].left != 0 &&
            (best == kNone ||
             terminals[i].ctx.now < terminals[best].ctx.now)) {
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
        for (size_t i = pick(k); i != kNone;) {
          {
            MutexLock lock(gate_mu);
            while (next_start[k] > slowest() + kThreadedLagWindowUs) {
              gate_cv.wait(lock);
            }
            max_lead = std::max(max_lead, next_start[k] - slowest());
          }
          Terminal& t = terminals[i];
          const SimTime before = t.ctx.now;
          errors[k] = RunStep(db_, options_, &t, t.ctx.now, &tallies[k]);
          t.left--;
          const SimTime took = t.ctx.now - before;
          // Publish the next start (a failed transaction stops this worker)
          // before any pacing sleep, so the others never wait out the sleep.
          i = errors[k].ok() ? pick(k) : kNone;
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
    for (const Status& s : errors) NOFTL_RETURN_IF_ERROR(s);
    for (const Tally& tally : tallies) tally.MergeInto(report);
    report->max_start_lead_us = max_lead;
    return Status::OK();
  };

  DriverReport warmup_report;  // discarded
  NOFTL_RETURN_IF_ERROR(
      run_phase(warmup_quota, /*measuring=*/false, &warmup_report));

  // Warmup done (all workers joined): restart the measurement window.
  db_->database()->ResetDeviceStats();
  db_->database()->buffer()->ResetStats();
  SimTime measure_start = ~SimTime{0};
  for (const Terminal& t : terminals) {
    measure_start = std::min(measure_start, t.ctx.now);
  }

  DriverReport report;
  const SchedTotals sched_base = CollectSchedTotals(db_->database());
  const auto wall_start = std::chrono::steady_clock::now();
  NOFTL_RETURN_IF_ERROR(
      run_phase(quota - warmup_quota, /*measuring=*/true, &report));
  const auto wall_end = std::chrono::steady_clock::now();

  SimTime end_time = measure_start;
  for (const Terminal& t : terminals) {
    end_time = std::max(end_time, t.ctx.now);
  }
  report.elapsed_us = end_time - measure_start;
  report.tps = PerSecond(report.transactions, report.elapsed_us);
  report.wall_elapsed_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end -
                                                            wall_start)
          .count());
  report.wall_tps = PerSecond(report.transactions, report.wall_elapsed_us);
  FillDeviceReport(db_->database(), DeviceTotals{}, &report);
  FillSchedReport(db_->database(), sched_base, &report);
  return report;
}

}  // namespace noftl::tpcc
