// GC victim-selection cost: segregated valid-count buckets vs the
// linear-scan baseline.
//
// NoFTL runs one OutOfPlaceMapper per region, so mapper-core overhead is
// multiplied across every region of the device. The old PickVictim scanned
// all blocks_per_die blocks on every pick — O(N) work on the hottest GC
// path. The bucket index keeps candidates in intrusive lists segregated by
// valid_count, making the greedy pick O(1) and the cost-benefit pick
// proportional to actual candidates only.
//
// One GC-churn workload at high utilization (GC always picks through the
// buckets), then two measurements:
//   * the churn: its wall time, and ns and steps per pick of the picks GC
//     actually made during it (the mapper times every pick) — the cost GC
//     pays;
//   * best case: ns and steps per pick repeated on the frozen state the
//     churn left, for the bucket index and for the linear-scan reference on
//     the same state. Repeating one pick on one state finds the same warm
//     bucket every time, so this is a lower bound, not the churn's cost.
//
// Emits BENCH_gc_victim.json.
//
// Flags: dies=4 blocks=4096 updates=300000 utilization=0.85 picks=50000
//        policy=greedy|costbenefit out=BENCH_gc_victim.json
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "flash/device.h"
#include "ftl/mapping.h"

namespace noftl::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct ChurnResult {
  double churn_wall_ms = 0;
  uint64_t victim_picks = 0;
  uint64_t victim_scan_steps = 0;
  uint64_t victim_pick_wall_ns = 0;
  uint64_t gc_copybacks = 0;
  uint64_t gc_erases = 0;
};

struct PickResult {
  double pick_ns = 0;
  double steps_per_pick = 0;
};

double PerPick(uint64_t steps, uint64_t picks) {
  return picks ? static_cast<double>(steps) / static_cast<double>(picks) : 0.0;
}

/// Best-case pick cost of `index`: one frozen state, picked repeatedly.
PickResult MeasurePicks(ftl::OutOfPlaceMapper* mapper,
                        const std::vector<flash::DieId>& dies, SimTime now,
                        uint64_t picks, ftl::VictimIndex index) {
  PickResult r;
  uint64_t steps = 0;
  const auto start = Clock::now();
  for (uint64_t i = 0; i < picks; i++) {
    mapper->DebugPickVictim(dies[i % dies.size()], now, index, &steps);
  }
  r.pick_ns = MsSince(start) * 1e6 / static_cast<double>(picks);
  r.steps_per_pick = PerPick(steps, picks);
  return r;
}

JsonObject ToJson(const PickResult& r) {
  JsonObject o;
  o.Set("pick_ns", r.pick_ns).Set("steps_per_pick", r.steps_per_pick);
  return o;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  printf("GC victim selection — valid-count buckets vs linear scan\n");
  printf("blocks_per_die=%llu dies=%llu updates=%llu\n\n",
         static_cast<unsigned long long>(flags.GetInt("blocks", 4096)),
         static_cast<unsigned long long>(flags.GetInt("dies", 4)),
         static_cast<unsigned long long>(flags.GetInt("updates", 300000)));

  flash::FlashGeometry geo;
  geo.channels = static_cast<uint32_t>(flags.GetInt("dies", 4));
  geo.dies_per_channel = 1;
  geo.planes_per_die = 1;
  geo.blocks_per_die = static_cast<uint32_t>(flags.GetInt("blocks", 4096));
  geo.pages_per_block = 64;
  geo.page_size = 512;
  flash::FlashDevice device(geo, flash::FlashTiming{});

  ftl::MapperOptions options;
  options.victim_policy = flags.GetString("policy", "greedy") == "costbenefit"
                              ? ftl::VictimPolicy::kCostBenefit
                              : ftl::VictimPolicy::kGreedy;
  std::vector<flash::DieId> dies(geo.total_dies());
  for (uint32_t i = 0; i < geo.total_dies(); i++) dies[i] = i;

  const uint64_t usable =
      static_cast<uint64_t>(geo.total_dies()) *
      (geo.blocks_per_die - (options.gc_high_watermark + 2)) *
      geo.pages_per_block;
  const uint64_t logical = static_cast<uint64_t>(
      flags.GetDouble("utilization", 0.85) * static_cast<double>(usable));
  ftl::OutOfPlaceMapper mapper(&device, dies, logical, options);
  if (!mapper.CheckCapacity().ok()) {
    fprintf(stderr, "capacity check failed\n");
    return 1;
  }

  // Fill the logical space, then churn uniform overwrites: at this
  // utilization GC picks victims continuously.
  SimTime now = 0;
  for (uint64_t lpn = 0; lpn < logical; lpn++) {
    now += 10;
    if (!mapper.Write(lpn, now, flash::OpOrigin::kHost, nullptr, 0, nullptr)
             .ok()) {
      fprintf(stderr, "fill failed at %llu\n",
              static_cast<unsigned long long>(lpn));
      return 1;
    }
  }

  const ftl::MapperStats before = mapper.stats();
  const uint64_t updates = flags.GetInt("updates", 300000);
  Rng rng(flags.GetInt("seed", 99));
  const auto churn_start = Clock::now();
  for (uint64_t i = 0; i < updates; i++) {
    now += 10;
    if (!mapper.Write(rng.Below(logical), now, flash::OpOrigin::kHost, nullptr,
                      0, nullptr)
             .ok()) {
      fprintf(stderr, "churn write failed\n");
      return 1;
    }
  }
  ChurnResult churn;
  churn.churn_wall_ms = MsSince(churn_start);
  const ftl::MapperStats after = mapper.stats();
  churn.victim_picks = after.victim_picks - before.victim_picks;
  churn.victim_scan_steps = after.victim_scan_steps - before.victim_scan_steps;
  churn.victim_pick_wall_ns =
      after.victim_pick_wall_ns - before.victim_pick_wall_ns;
  churn.gc_copybacks = after.gc_copybacks - before.gc_copybacks;
  churn.gc_erases = after.gc_erases - before.gc_erases;
  if (churn.victim_picks == 0) {
    printf("warning: churn finished before GC started (0 victim picks) — "
           "the end-to-end columns only reflect the fill headroom; raise "
           "updates= or utilization= for a GC-bound run\n\n");
  }

  // Best case of both indexes: repeated picks on the churned state.
  const uint64_t picks = flags.GetInt("picks", 50000);
  const PickResult scan = MeasurePicks(&mapper, dies, now, picks,
                                       ftl::VictimIndex::kLinearScan);
  const PickResult buckets =
      MeasurePicks(&mapper, dies, now, picks, ftl::VictimIndex::kBuckets);

  const double churn_pick_ns =
      PerPick(churn.victim_pick_wall_ns, churn.victim_picks);
  printf("churn: %.1f ms, %llu picks, %.1f steps/pick, %.1f ns/pick, "
         "%llu copybacks, %llu erases\n\n",
         churn.churn_wall_ms,
         static_cast<unsigned long long>(churn.victim_picks),
         PerPick(churn.victim_scan_steps, churn.victim_picks), churn_pick_ns,
         static_cast<unsigned long long>(churn.gc_copybacks),
         static_cast<unsigned long long>(churn.gc_erases));
  printf("best case (repeated picks on the frozen post-churn state):\n");
  printf("%-14s | %14s %12s\n", "victim index", "steps/pick", "pick ns");
  PrintRule(44);
  printf("%-14s | %14.1f %12.1f\n", "linear scan", scan.steps_per_pick,
         scan.pick_ns);
  printf("%-14s | %14.1f %12.1f\n", "buckets", buckets.steps_per_pick,
         buckets.pick_ns);
  PrintRule(44);
  const double pick_ratio =
      buckets.pick_ns > 0 ? scan.pick_ns / buckets.pick_ns : 0.0;
  printf("\nbest-case per-pick cost ratio (scan/buckets): %.1fx\n",
         pick_ratio);

  JsonObject out;
  JsonObject config;
  config.Set("dies", flags.GetInt("dies", 4))
      .Set("blocks_per_die", flags.GetInt("blocks", 4096))
      .Set("pages_per_block", uint64_t{64})
      .Set("updates", flags.GetInt("updates", 300000))
      .Set("utilization", flags.GetDouble("utilization", 0.85))
      .Set("policy", flags.GetString("policy", "greedy"));
  JsonObject churn_json;
  churn_json.Set("churn_wall_ms", churn.churn_wall_ms)
      .Set("victim_picks", churn.victim_picks)
      .Set("victim_scan_steps", churn.victim_scan_steps)
      .Set("steps_per_pick",
           PerPick(churn.victim_scan_steps, churn.victim_picks))
      .Set("pick_ns", churn_pick_ns)
      .Set("gc_copybacks", churn.gc_copybacks)
      .Set("gc_erases", churn.gc_erases);
  out.Set("bench", std::string("gc_victim"))
      .Set("config", config)
      .Set("churn", churn_json);
  JsonObject best_case;
  best_case.Set("linear_scan", ToJson(scan))
      .Set("buckets", ToJson(buckets))
      .Set("pick_cost_ratio", pick_ratio);
  out.Set("best_case_frozen_state", best_case);

  const std::string path = flags.GetString("out", "BENCH_gc_victim.json");
  if (!out.WriteFile(path)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace noftl::bench

int main(int argc, char** argv) { return noftl::bench::Main(argc, argv); }
