// Batched vs serial I/O on an 8-die device, and what the event-driven
// submit/reap completion queues buy on top.
//
// The whole point of exposing native flash to the DBMS is its internal
// parallelism — which a one-synchronous-op-at-a-time storage API cannot
// reach. This bench measures what the IoBatch submission path buys:
//
//   1. random multi-get: K random page reads per round, serial-chained
//      (each read issued at the previous completion) vs one batch per round
//      (all reads issued together; per-die queues overlap);
//   2. scan: S sequential pages (striped across the dies by the writes) in
//      chunks of 32, chained vs batched;
//   3. TPC-C: the standard mix with the transactions' batched I/O on vs off
//      (NewOrder item/stock prefetch, Delivery/StockLevel order-line
//      prefetch, index leaf prefetch);
//   4. queue-depth sweep: closed-loop random reads at depth 1..32, with
//      per-request completion-latency percentiles (p50/p99) — deeper queues
//      trade tail latency for throughput exactly as a real device does;
//   5. compute–I/O overlap: submit a batch, compute, then reap. The wall
//      time must equal max(compute, max-over-dies I/O) — pinned as an exit
//      gate — where the old call-and-resolve API paid I/O + compute.
//
// Flags: dies=8 channels=8 blocks=256 batch=32 rounds=400 scan_pages=2048
//        warehouses=1 txns=4000 terminals=8 seed=42 out=BENCH_async_io.json
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "flash/device.h"
#include "noftl/region_manager.h"
#include "storage/io_batch.h"

namespace noftl::bench {
namespace {

using flash::FlashDevice;
using flash::FlashGeometry;
using flash::FlashTiming;
using storage::IoBatch;

FlashGeometry DeviceGeometry(const Flags& flags) {
  FlashGeometry geo;
  geo.channels = static_cast<uint32_t>(flags.GetInt("channels", 8));
  geo.dies_per_channel =
      static_cast<uint32_t>(flags.GetInt("dies", 8)) / geo.channels;
  if (geo.dies_per_channel == 0) geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 256));
  geo.pages_per_block = 64;
  geo.page_size = 4096;
  return geo;
}

struct MicroStack {
  explicit MicroStack(const FlashGeometry& geo)
      : device(geo, FlashTiming{}), manager(&device) {
    region::RegionOptions options;
    options.name = "rg";
    options.max_chips = geo.total_dies();
    rg = *manager.CreateRegion(options);
  }

  FlashDevice device;
  region::RegionManager manager;
  region::Region* rg;
};

/// Fill ~70% of the region; identical on every stack (same op sequence).
uint64_t Populate(MicroStack* s) {
  const uint64_t pages = s->rg->logical_pages() * 7 / 10;
  std::vector<char> data(s->rg->page_size());
  for (uint64_t lpn = 0; lpn < pages; lpn++) {
    memset(data.data(), static_cast<int>(lpn & 0xFF), data.size());
    Status st = s->rg->WritePage(lpn, 0, data.data(), 1, nullptr);
    if (!st.ok()) {
      fprintf(stderr, "populate failed: %s\n", st.ToString().c_str());
      exit(1);
    }
  }
  return pages;
}

struct MicroResult {
  SimTime serial_us = 0;
  SimTime batched_us = 0;
  bool contents_identical = true;

  double Ratio() const {
    return batched_us ? static_cast<double>(serial_us) /
                            static_cast<double>(batched_us)
                      : 0.0;
  }
};

/// Run the same read schedule serial-chained on one stack and batched on a
/// twin, comparing bytes read.
MicroResult RunReads(const FlashGeometry& geo,
                     const std::vector<std::vector<uint64_t>>& rounds) {
  MicroStack serial(geo);
  MicroStack batched(geo);
  Populate(&serial);
  Populate(&batched);

  MicroResult result;
  const uint32_t page_size = geo.page_size;
  std::vector<char> buf(page_size);
  std::vector<std::vector<char>> bufs;

  // Start both clocks past the populate backlog so the measurement sees the
  // read schedule itself, not queueing behind the fill writes.
  SimTime start = 0;
  for (uint32_t die = 0; die < geo.total_dies(); die++) {
    start = std::max({start, serial.device.DieBusyUntil(die),
                      batched.device.DieBusyUntil(die)});
  }

  SimTime t_serial = start;
  SimTime t_batched = start;
  for (const auto& round : rounds) {
    bufs.assign(round.size(), std::vector<char>(page_size));
    // Serial: chained, one op at a time.
    for (size_t i = 0; i < round.size(); i++) {
      SimTime done = t_serial;
      Status st = serial.rg->ReadPage(round[i], t_serial, buf.data(), &done);
      if (!st.ok()) {
        fprintf(stderr, "serial read failed: %s\n", st.ToString().c_str());
        exit(1);
      }
      t_serial = done;
      bufs[i].assign(buf.begin(), buf.end());
    }
    // Batched: one submission.
    IoBatch batch;
    std::vector<std::vector<char>> batch_bufs(round.size(),
                                              std::vector<char>(page_size));
    for (size_t i = 0; i < round.size(); i++) {
      batch.AddRead(round[i], batch_bufs[i].data());
    }
    SimTime done = t_batched;
    Status st = batched.rg->RunBatch(&batch, t_batched, &done);
    if (!st.ok() || !batch.FirstError().ok()) {
      fprintf(stderr, "batched read failed\n");
      exit(1);
    }
    t_batched = done;
    for (size_t i = 0; i < round.size(); i++) {
      if (memcmp(bufs[i].data(), batch_bufs[i].data(), page_size) != 0) {
        result.contents_identical = false;
      }
    }
  }
  result.serial_us = t_serial - start;
  result.batched_us = t_batched - start;
  return result;
}

MicroResult RandomMultiGet(const Flags& flags, const FlashGeometry& geo) {
  MicroStack probe(geo);
  const uint64_t pages = probe.rg->logical_pages() * 7 / 10;
  const uint64_t k = flags.GetInt("batch", 32);
  const uint64_t n_rounds = flags.GetInt("rounds", 400);
  Rng rng(flags.GetInt("seed", 42));
  std::vector<std::vector<uint64_t>> rounds(n_rounds);
  for (auto& round : rounds) {
    round.resize(k);
    for (auto& lpn : round) lpn = rng.Below(pages);
  }
  return RunReads(geo, rounds);
}

MicroResult SequentialScan(const Flags& flags, const FlashGeometry& geo) {
  MicroStack probe(geo);
  const uint64_t pages = probe.rg->logical_pages() * 7 / 10;
  const uint64_t total = std::min(flags.GetInt("scan_pages", 2048), pages);
  const uint64_t chunk = 32;
  std::vector<std::vector<uint64_t>> rounds;
  for (uint64_t base = 0; base < total; base += chunk) {
    std::vector<uint64_t> round;
    for (uint64_t p = base; p < std::min(base + chunk, total); p++) {
      round.push_back(p);
    }
    rounds.push_back(std::move(round));
  }
  return RunReads(geo, rounds);
}

/// One point of the queue-depth sweep: closed-loop random reads with `depth`
/// requests outstanding per round, measured by per-request completion
/// latency (complete - issue) and simulated throughput.
struct DepthPoint {
  uint64_t depth = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
  double kpages_per_s = 0;  ///< simulated throughput
};

std::vector<DepthPoint> QueueDepthSweep(const Flags& flags,
                                        const FlashGeometry& geo) {
  const uint64_t n_rounds = flags.GetInt("sweep_rounds", 300);
  std::vector<DepthPoint> points;
  for (const uint64_t depth : {1u, 2u, 4u, 8u, 16u, 32u}) {
    MicroStack s(geo);
    const uint64_t pages = Populate(&s);
    Rng rng(flags.GetInt("seed", 42) + depth);
    std::vector<std::vector<char>> bufs(depth,
                                        std::vector<char>(geo.page_size));
    SimTime t = 0;
    for (uint32_t die = 0; die < geo.total_dies(); die++) {
      t = std::max(t, s.device.DieBusyUntil(die));
    }
    const SimTime start = t;
    Histogram latency;
    uint64_t reads = 0;
    for (uint64_t round = 0; round < n_rounds; round++) {
      IoBatch batch;
      for (uint64_t i = 0; i < depth; i++) {
        batch.AddRead(rng.Below(pages), bufs[i].data());
      }
      storage::IoTicket ticket = 0;
      Status st = s.rg->SubmitBatch(&batch, t, &ticket);
      SimTime done = t;
      if (st.ok()) st = s.rg->WaitBatch(ticket, &done);
      if (!st.ok() || !batch.FirstError().ok()) {
        fprintf(stderr, "sweep read failed at depth %llu\n",
                static_cast<unsigned long long>(depth));
        exit(1);
      }
      for (const storage::IoRequest& r : batch.requests()) {
        latency.Record(r.complete - t);
        reads++;
      }
      t = done;
    }
    DepthPoint p;
    p.depth = depth;
    p.p50_us = latency.Percentile(50.0);
    p.p99_us = latency.Percentile(99.0);
    p.p999_us = latency.P999();
    p.mean_us = latency.Mean();
    p.kpages_per_s =
        t > start ? static_cast<double>(reads) * 1e6 / 1e3 /
                        static_cast<double>(t - start)
                  : 0.0;
    points.push_back(p);
  }
  return points;
}

/// Compute–I/O overlap: per round, submit a K-read batch, compute for C µs,
/// then reap — wall = max(compute, I/O). The serial shape waits for the I/O
/// and then computes — wall = I/O + compute. `pinned` checks the max()
/// identity exactly on a round issued against idle dies.
struct OverlapResult {
  SimTime no_overlap_us = 0;
  SimTime overlapped_us = 0;
  bool pinned = false;

  double Ratio() const {
    return overlapped_us ? static_cast<double>(no_overlap_us) /
                               static_cast<double>(overlapped_us)
                         : 0.0;
  }
};

OverlapResult ComputeOverlap(const Flags& flags, const FlashGeometry& geo) {
  const uint64_t k = flags.GetInt("batch", 32);
  const uint64_t n_rounds = flags.GetInt("rounds", 400);
  const FlashTiming timing;
  // Compute sized to the I/O of one round (K reads over the dies), so the
  // overlap window is contested from both sides.
  const SimTime io_per_round =
      (k + geo.total_dies() - 1) / geo.total_dies() *
      (timing.read_us + timing.transfer_us);
  const SimTime compute = flags.GetInt("compute_us", io_per_round * 3 / 4);

  MicroStack overlap(geo);
  MicroStack serial(geo);
  const uint64_t pages = Populate(&overlap);
  Populate(&serial);
  Rng rng(flags.GetInt("seed", 42) + 99);
  std::vector<std::vector<uint64_t>> rounds(n_rounds);
  for (auto& round : rounds) {
    round.resize(k);
    for (auto& lpn : round) lpn = rng.Below(pages);
  }

  OverlapResult result;
  std::vector<std::vector<char>> bufs(k, std::vector<char>(geo.page_size));
  SimTime start = 0;
  for (uint32_t die = 0; die < geo.total_dies(); die++) {
    start = std::max({start, overlap.device.DieBusyUntil(die),
                      serial.device.DieBusyUntil(die)});
  }

  // Overlapped: submit, compute, reap.
  SimTime t = start;
  SimTime first_io = 0;
  SimTime first_io_slots = 0;
  SimTime first_wall = 0;
  bool first = true;
  for (const auto& round : rounds) {
    IoBatch batch;
    for (size_t i = 0; i < round.size(); i++) {
      batch.AddRead(round[i], bufs[i].data());
    }
    storage::IoTicket ticket = 0;
    if (!overlap.rg->SubmitBatch(&batch, t, &ticket).ok()) exit(1);
    const SimTime compute_end = t + compute;
    SimTime io_done = t;
    if (!overlap.rg->WaitBatch(ticket, &io_done).ok()) exit(1);
    if (first) {
      first_io = io_done;
      // Independent evidence: the per-request completion slots the reap
      // delivered (filled by the device's schedule, not by the wall-time
      // arithmetic below).
      for (const storage::IoRequest& r : batch.requests()) {
        first_io_slots = std::max(first_io_slots, r.complete);
      }
      first_wall = std::max(compute_end, io_done) - t;
      first = false;
    }
    t = std::max(compute_end, io_done);
  }
  result.overlapped_us = t - start;

  // Serial shape: wait for the I/O, then compute.
  t = start;
  SimTime first_io_serial = 0;
  first = true;
  for (const auto& round : rounds) {
    IoBatch batch;
    for (size_t i = 0; i < round.size(); i++) {
      batch.AddRead(round[i], bufs[i].data());
    }
    SimTime io_done = t;
    if (!serial.rg->RunBatch(&batch, t, &io_done).ok()) exit(1);
    if (first) {
      first_io_serial = io_done;
      first = false;
    }
    t = io_done + compute;
  }
  result.no_overlap_us = t - start;

  // Acceptance pin, on the first round (both stacks issue it at `start`
  // against identically-loaded dies). Every conjunct is checked against
  // evidence the wall-time arithmetic does not produce itself: the compute
  // between submit and reap must not delay the in-flight I/O (the batch
  // completes exactly when the call-and-resolve twin's does, and the reap's
  // aggregate matches the per-request completion slots), so the round's
  // wall time is max(compute, the TWIN's I/O) instead of I/O + compute.
  result.pinned = first_io == first_io_serial &&
                  first_io == first_io_slots &&
                  first_wall == std::max(compute, first_io_serial - start) &&
                  first_wall < (first_io_serial - start) + compute;
  return result;
}

struct TpccPair {
  tpcc::DriverReport serial;
  tpcc::DriverReport batched;
};

/// Foreground latency over the whole transaction mix.
Histogram OverallResponse(const tpcc::DriverReport& r) {
  Histogram all;
  for (int i = 0; i < tpcc::kNumTxnTypes; i++) all.Merge(r.response_us[i]);
  return all;
}

TpccPair RunTpccPair(const Flags& flags) {
  TpccPair out;
  for (const bool batched : {false, true}) {
    TpccBenchConfig config = TpccBenchConfig::FromFlags(flags);
    config.dies = static_cast<uint32_t>(flags.GetInt("dies", 8));
    config.channels = static_cast<uint32_t>(flags.GetInt("channels", 8));
    config.transactions = flags.GetInt("txns", 4000);
    config.warmup = flags.GetInt("warmup", 1000);

    tpcc::TpccDbOptions options;
    options.db = config.DbOptions();
    options.scale = config.Scale();
    options.placement = tpcc::TraditionalPlacement(config.dies);
    options.seed = config.seed;
    auto db = tpcc::TpccDb::CreateAndLoad(options);
    if (!db.ok()) {
      fprintf(stderr, "TPC-C load failed: %s\n", db.status().ToString().c_str());
      exit(1);
    }
    tpcc::DriverOptions driver_options;
    driver_options.terminals = config.terminals;
    driver_options.max_transactions = config.transactions;
    driver_options.warmup_transactions = config.warmup;
    driver_options.seed = config.seed + 1;
    driver_options.batched_io = batched;
    tpcc::TpccDriver driver(db->get(), driver_options);
    auto report = driver.Run();
    if (!report.ok()) {
      fprintf(stderr, "TPC-C run failed: %s\n",
              report.status().ToString().c_str());
      exit(1);
    }
    report->label = batched ? "batched" : "serial";
    (batched ? out.batched : out.serial) = *report;
  }
  return out;
}

JsonObject MicroJson(const MicroResult& r) {
  JsonObject o;
  o.Set("serial_us", static_cast<uint64_t>(r.serial_us))
      .Set("batched_us", static_cast<uint64_t>(r.batched_us))
      .Set("speedup", r.Ratio())
      .Set("contents_identical", r.contents_identical ? 1 : 0);
  return o;
}

JsonObject TpccJson(const tpcc::DriverReport& r) {
  Histogram all = OverallResponse(r);
  JsonObject o;
  o.Set("tps", r.tps)
      .Set("neworder_ms", r.MeanResponseMs(tpcc::TxnType::kNewOrder))
      .Set("delivery_ms", r.MeanResponseMs(tpcc::TxnType::kDelivery))
      .Set("stocklevel_ms", r.MeanResponseMs(tpcc::TxnType::kStockLevel))
      .Set("read_4k_us", r.read_4k_us)
      .Set("p50_us", all.P50())
      .Set("p99_us", all.P99())
      .Set("p999_us", all.P999())
      .Set("transactions", r.transactions);
  return o;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const FlashGeometry geo = DeviceGeometry(flags);
  printf("Batched vs serial I/O\n");
  printf("device: %s\n\n", geo.ToString().c_str());

  const MicroResult multiget = RandomMultiGet(flags, geo);
  const MicroResult scan = SequentialScan(flags, geo);
  const std::vector<DepthPoint> sweep = QueueDepthSweep(flags, geo);
  const OverlapResult overlap = ComputeOverlap(flags, geo);

  printf("%-22s | %14s %14s %9s %10s\n", "scenario", "serial (us)",
         "batched (us)", "speedup", "bytes ==");
  PrintRule(78);
  printf("%-22s | %14llu %14llu %8.2fx %10s\n", "random multi-get",
         static_cast<unsigned long long>(multiget.serial_us),
         static_cast<unsigned long long>(multiget.batched_us),
         multiget.Ratio(), multiget.contents_identical ? "yes" : "NO");
  printf("%-22s | %14llu %14llu %8.2fx %10s\n", "sequential scan",
         static_cast<unsigned long long>(scan.serial_us),
         static_cast<unsigned long long>(scan.batched_us), scan.Ratio(),
         scan.contents_identical ? "yes" : "NO");

  printf("\nqueue-depth sweep (closed-loop random reads)\n");
  printf("%-8s | %12s %12s %12s %12s %14s\n", "depth", "p50 (us)",
         "p99 (us)", "p999 (us)", "mean (us)", "kpages/s (sim)");
  PrintRule(78);
  for (const DepthPoint& p : sweep) {
    printf("%-8llu | %12.1f %12.1f %12.1f %12.1f %14.1f\n",
           static_cast<unsigned long long>(p.depth), p.p50_us, p.p99_us,
           p.p999_us, p.mean_us, p.kpages_per_s);
  }

  printf("\ncompute-I/O overlap (submit, compute, reap)\n");
  printf("no overlap: %llu us; overlapped: %llu us; gain: %.2fx; "
         "wall == max(compute, io): %s\n",
         static_cast<unsigned long long>(overlap.no_overlap_us),
         static_cast<unsigned long long>(overlap.overlapped_us),
         overlap.Ratio(), overlap.pinned ? "yes" : "NO");

  const TpccPair tpcc = RunTpccPair(flags);
  const double neworder_speedup =
      tpcc.batched.MeanResponseMs(tpcc::TxnType::kNewOrder) > 0
          ? tpcc.serial.MeanResponseMs(tpcc::TxnType::kNewOrder) /
                tpcc.batched.MeanResponseMs(tpcc::TxnType::kNewOrder)
          : 0.0;
  const double delivery_speedup =
      tpcc.batched.MeanResponseMs(tpcc::TxnType::kDelivery) > 0
          ? tpcc.serial.MeanResponseMs(tpcc::TxnType::kDelivery) /
                tpcc.batched.MeanResponseMs(tpcc::TxnType::kDelivery)
          : 0.0;
  printf("\nTPC-C (%llu txns, %u terminals)\n",
         static_cast<unsigned long long>(flags.GetInt("txns", 4000)),
         static_cast<uint32_t>(flags.GetInt("terminals", 8)));
  printf("%-22s | %10s %12s %12s %12s\n", "mode", "TPS", "NewOrder ms",
         "Delivery ms", "StockLvl ms");
  PrintRule(78);
  for (const auto* r : {&tpcc.serial, &tpcc.batched}) {
    printf("%-22s | %10.1f %12.2f %12.2f %12.2f\n", r->label.c_str(), r->tps,
           r->MeanResponseMs(tpcc::TxnType::kNewOrder),
           r->MeanResponseMs(tpcc::TxnType::kDelivery),
           r->MeanResponseMs(tpcc::TxnType::kStockLevel));
  }
  printf("\nmulti-get speedup: %.2fx; scan speedup: %.2fx; "
         "NewOrder speedup: %.2fx; Delivery speedup: %.2fx\n",
         multiget.Ratio(), scan.Ratio(), neworder_speedup, delivery_speedup);

  JsonObject config;
  config.Set("dies", static_cast<uint64_t>(geo.total_dies()))
      .Set("channels", static_cast<uint64_t>(geo.channels))
      .Set("blocks_per_die", static_cast<uint64_t>(geo.blocks_per_die))
      .Set("pages_per_block", static_cast<uint64_t>(geo.pages_per_block))
      .Set("page_size", static_cast<uint64_t>(geo.page_size))
      .Set("batch", flags.GetInt("batch", 32))
      .Set("rounds", flags.GetInt("rounds", 400))
      .Set("scan_pages", flags.GetInt("scan_pages", 2048))
      .Set("txns", flags.GetInt("txns", 4000))
      .Set("seed", flags.GetInt("seed", 42));
  JsonObject tpcc_obj;
  tpcc_obj.Set("serial", TpccJson(tpcc.serial))
      .Set("batched", TpccJson(tpcc.batched))
      .Set("neworder_speedup", neworder_speedup)
      .Set("delivery_speedup", delivery_speedup);
  std::vector<JsonObject> sweep_json;
  for (const DepthPoint& p : sweep) {
    JsonObject o;
    o.Set("depth", p.depth)
        .Set("p50_us", p.p50_us)
        .Set("p99_us", p.p99_us)
        .Set("p999_us", p.p999_us)
        .Set("mean_us", p.mean_us)
        .Set("kpages_per_s", p.kpages_per_s);
    sweep_json.push_back(o);
  }
  JsonObject overlap_json;
  overlap_json.Set("no_overlap_us", static_cast<uint64_t>(overlap.no_overlap_us))
      .Set("overlapped_us", static_cast<uint64_t>(overlap.overlapped_us))
      .Set("gain", overlap.Ratio())
      .Set("wall_is_max_of_compute_and_io", overlap.pinned ? 1 : 0);

  JsonObject out;
  out.Set("bench", std::string("async_io"))
      .Set("config", config)
      .Set("random_multiget", MicroJson(multiget))
      .Set("sequential_scan", MicroJson(scan))
      .SetArray("queue_depth_sweep", sweep_json)
      .Set("compute_io_overlap", overlap_json)
      .Set("tpcc", tpcc_obj);

  const std::string path = flags.GetString("out", "BENCH_async_io.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());

  // Acceptance gates: an 8-die random multi-get batch must be >= 3x faster
  // than serial single-page issue with byte-identical results, and the
  // submit/compute/reap wall time must be max(compute, I/O) — computation
  // truly overlaps the in-flight flash operations.
  bool ok = multiget.Ratio() >= 3.0 && multiget.contents_identical &&
            scan.contents_identical && overlap.pinned &&
            overlap.Ratio() > 1.2;

  // Tail-latency gates (ISSUE 9): the simulation is deterministic, so these
  // are regression pins, not statistical bounds. The queue-depth sweep's
  // tail must stay a bounded multiple of its p99 (queueing, not stragglers),
  // the deepest point must not regress past its measured ceiling, and
  // batched transaction I/O must never worsen the foreground tail.
  for (const DepthPoint& p : sweep) {
    if (p.p999_us > 1.75 * p.p99_us) {
      fprintf(stderr, "TAIL GATE FAILED: depth %llu p999 %.1f > 1.75x p99 %.1f\n",
              static_cast<unsigned long long>(p.depth), p.p999_us, p.p99_us);
      ok = false;
    }
  }
  const DepthPoint& deepest = sweep.back();
  if (deepest.p99_us > 1000.0 || deepest.p999_us > 1250.0) {
    fprintf(stderr, "TAIL GATE FAILED: depth %llu p99 %.1f / p999 %.1f "
            "exceeds 1000/1250 us ceiling\n",
            static_cast<unsigned long long>(deepest.depth), deepest.p99_us,
            deepest.p999_us);
    ok = false;
  }
  Histogram serial_all = OverallResponse(tpcc.serial);
  Histogram batched_all = OverallResponse(tpcc.batched);
  if (batched_all.P99() > serial_all.P99() ||
      batched_all.P999() > serial_all.P999()) {
    fprintf(stderr, "TAIL GATE FAILED: batched TPC-C p99/p999 %.1f/%.1f us "
            "worse than serial %.1f/%.1f us\n",
            batched_all.P99(), batched_all.P999(), serial_all.P99(),
            serial_all.P999());
    ok = false;
  }
  if (!ok) fprintf(stderr, "ACCEPTANCE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
