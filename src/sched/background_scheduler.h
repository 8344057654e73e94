// Background-service scheduler: idle-time GC, scrubbing, wear leveling and
// checkpointing with foreground-preemption and tail-latency QoS.
//
// The mapper's housekeeping traditionally rides the foreground path: GC
// quanta append to host programs, read-health scrubs drain at the next read,
// checkpoints fire inside the write that crosses the interval. That keeps
// single-thread runs deterministic, but every one of those issues extends a
// die's busy horizon right behind a foreground op — the classic GC
// tail-latency coupling. The BackgroundScheduler decouples them: one
// scheduler per shard stack watches the per-die busy horizons and pending
// foreground queues (flash::FlashDevice::DieIdleAt / DiePendingHostOps) and
// grants bounded maintenance quanta (ftl::OutOfPlaceMapper::
// BackgroundMaintainDie) only on dies with no queued foreground work,
// deferring the remainder of a grant the moment a foreground submission
// arrives (the mapper's foreground-arrival epoch moves).
//
// Two driving modes share the same Tick:
//   * deterministic synchronous mode — the simulation driver calls
//     Tick(now) between transactions; no thread, byte-identical digests;
//   * service-thread mode — Start() spawns a wall-clock thread that ticks
//     at the foreground's paid-for sim-time frontier (max die busy horizon).
//
// Lock discipline: the scheduler's own mutex ranks at LockRank::kScheduler
// (580), strictly below the mapper (600) and device (700) latches it
// acquires while issuing work, and above every DBMS-side latch — so DDL /
// checkpoint fan-outs may quiesce it while holding the router lock, and the
// service thread never touches upper-layer latches at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/mapping.h"

namespace noftl::sched {

struct SchedulerOptions {
  /// Master switch: Database / ShardRouter only build schedulers (and
  /// enable write-admission throttling) when set.
  bool enabled = false;
  /// Spawn a wall-clock service thread on Start(). Off = deterministic
  /// synchronous mode (the driver calls Tick between transactions).
  bool service_thread = false;
  /// Relocation budget (pages) per grant quantum.
  uint32_t batch_pages = 8;
  /// Max grant quanta per idle die per tick; foreground arrivals preempt
  /// the remainder between quanta.
  uint32_t quanta_per_tick = 4;
  /// Free-block target of proactive GC (0 = the mapper's
  /// gc_high_watermark).
  uint32_t gc_free_target = 0;
  /// Background wear leveling: erase-count spread that triggers a
  /// cold-block rotation (0 = off).
  uint32_t wl_spread = 0;
  /// Periodic checkpoint cadence in sim time, taken on fully idle mappers
  /// only (0 = off; the mapper's own write-count trigger still applies).
  SimTime checkpoint_interval_us = 0;
  /// Service-thread wall sleep between ticks.
  uint32_t poll_interval_us = 200;
  /// Background erase pacing (0 = off, unlimited — byte-identical to the
  /// unpaced scheduler): sim time one background victim erase "costs". A
  /// per-mapper credit accrues with elapsed sim time, slowed by the
  /// foreground arrival rate observed over the same span (credit grows at
  /// 1/(1 + arrivals) of wall sim time), so erases flow freely on an idle
  /// stack and thin out as the foreground picks up. Deferred victims stay
  /// on the mapper's backlog and are granted when credit returns.
  SimTime erase_pace_window_us = 0;
  /// Credit cap, in whole erases (burst size of the token bucket).
  uint32_t erase_pace_burst = 4;
};

/// Counters of one scheduler instance (aggregated across its mappers by the
/// driver report; admission-control counters live in MapperStats).
struct SchedulerStats {
  RelaxedCounter ticks = 0;
  RelaxedCounter bg_gc_pages = 0;
  RelaxedCounter bg_gc_erases = 0;
  RelaxedCounter bg_scrub_blocks = 0;
  RelaxedCounter bg_wl_pages = 0;
  RelaxedCounter bg_checkpoints = 0;
  /// Dies found idle and granted work / skipped because foreground work was
  /// queued or the die was still busy.
  RelaxedCounter idle_grants = 0;
  RelaxedCounter busy_skips = 0;
  /// Grants whose remainder was deferred because a foreground submission
  /// arrived between quanta.
  RelaxedCounter preemptions = 0;
  /// Background victim erases pushed to a later tick by erase pacing
  /// (options.erase_pace_window_us; the pages were already relocated).
  RelaxedCounter bg_erase_deferred = 0;

  /// Field-wise sum (totals over several schedulers). Every counter above
  /// is summed here, so a new one needs one line in this function only.
  SchedulerStats& operator+=(const SchedulerStats& o) {
    ticks += o.ticks;
    bg_gc_pages += o.bg_gc_pages;
    bg_gc_erases += o.bg_gc_erases;
    bg_scrub_blocks += o.bg_scrub_blocks;
    bg_wl_pages += o.bg_wl_pages;
    bg_checkpoints += o.bg_checkpoints;
    idle_grants += o.idle_grants;
    busy_skips += o.busy_skips;
    preemptions += o.preemptions;
    bg_erase_deferred += o.bg_erase_deferred;
    return *this;
  }
};

/// One scheduler per shard stack (one FlashDevice and the mappers over it).
class BackgroundScheduler {
 public:
  BackgroundScheduler(flash::FlashDevice* device,
                      const SchedulerOptions& options);
  ~BackgroundScheduler();

  BackgroundScheduler(const BackgroundScheduler&) = delete;
  BackgroundScheduler& operator=(const BackgroundScheduler&) = delete;

  /// Attach / detach a mapper (region create/drop, DDL). Registered mappers
  /// must outlive their registration.
  void RegisterMapper(ftl::OutOfPlaceMapper* mapper);
  void UnregisterMapper(ftl::OutOfPlaceMapper* mapper);

  /// One deterministic scheduling pass at sim time `now`: for every
  /// registered mapper and every idle die, grant up to quanta_per_tick
  /// maintenance quanta, preempting between quanta on foreground arrival;
  /// then periodic checkpoints on fully idle mappers. Returns the number of
  /// background issues (GC pages + erases, WL pages, scrub blocks). Safe
  /// from any thread; no-op while quiesced.
  uint64_t Tick(SimTime now);

  /// Spawn the service thread (service_thread mode) and mark the mappers'
  /// background reclaimer attached so write admission may wait for it.
  void Start();
  /// Join the service thread and detach the reclaimer. Idempotent; called
  /// by the destructor.
  void Stop();

  /// Block new grants and wait out an in-flight tick (checkpoint / DDL
  /// windows that must not race background relocation on the same stack).
  void Quiesce();
  void Resume();

  /// Service thread live (Start() in service_thread mode, before Stop()).
  bool running() const { return thread_.joinable(); }

  const SchedulerStats& stats() const { return stats_; }
  const SchedulerOptions& options() const { return options_; }

 private:
  struct Entry {
    ftl::OutOfPlaceMapper* mapper;
    SimTime last_checkpoint = 0;
    /// Erase-pacing token bucket (options.erase_pace_window_us != 0):
    /// credit in sim-time units — one erase costs erase_pace_window_us —
    /// refilled at 1/(1 + foreground arrivals since the last refill).
    SimTime erase_credit = 0;
    SimTime last_pace_time = 0;
    uint64_t last_pace_arrivals = 0;
  };

  /// The scheduler owns no clock: the service thread ticks at the sim-time
  /// frontier the foreground has already paid for — the max busy horizon
  /// over the stack's dies.
  SimTime Frontier() const;
  void ServiceLoop();
  uint64_t TickLocked(SimTime now) REQUIRES(mu_);
  void MaybeCheckpoint(Entry* e, SimTime now) REQUIRES(mu_);

  flash::FlashDevice* device_;
  const SchedulerOptions options_;
  /// Held for the whole of a tick, so Quiesce() doubles as a drain barrier.
  mutable Mutex mu_{LockRank::kScheduler};
  std::vector<Entry> mappers_ GUARDED_BY(mu_);
  bool quiesced_ GUARDED_BY(mu_) = false;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  SchedulerStats stats_;
};

}  // namespace noftl::sched
