// Shared helpers for the benchmark harnesses: a tiny argv flag parser and
// the common "build TPC-C at this placement, run the driver, return the
// report" routine used by several tables.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/tpcc_db.h"

namespace noftl::bench {

/// "key=value" argv parser: `./bench warehouses=4 txns=60000`.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; i++) {
      const std::string arg = argv[i];
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        fprintf(stderr, "ignoring argument without '=': %s\n", arg.c_str());
        continue;
      }
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }

  uint64_t GetInt(const std::string& key, uint64_t def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : strtod(it->second.c_str(), nullptr);
  }
  std::string GetString(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Benchmark-scale TPC-C configuration, shared across the TPC-C tables so
/// traditional and multi-region runs see the identical device and workload.
struct TpccBenchConfig {
  uint32_t warehouses = 1;
  uint64_t transactions = 30000;
  uint64_t warmup = 30000;     ///< unmeasured steady-state warmup
  uint32_t terminals = 8;
  uint32_t dies = 64;          ///< the paper's device
  uint32_t channels = 16;
  uint32_t frames = 1024;      ///< buffer pool frames (4 KiB pages)
  uint32_t flush_batch = 16;   ///< flusher pages per activation (pacing)
  double flush_high_water = 0.20;
  double target_utilization = 0.80;
  uint64_t seed = 42;

  static TpccBenchConfig FromFlags(const Flags& flags) {
    TpccBenchConfig c;
    c.warehouses = static_cast<uint32_t>(flags.GetInt("warehouses", c.warehouses));
    c.transactions = flags.GetInt("txns", c.transactions);
    c.warmup = flags.GetInt("warmup", c.transactions);
    c.terminals = static_cast<uint32_t>(flags.GetInt("terminals", c.terminals));
    c.dies = static_cast<uint32_t>(flags.GetInt("dies", c.dies));
    c.channels = static_cast<uint32_t>(flags.GetInt("channels", c.channels));
    c.frames = static_cast<uint32_t>(flags.GetInt("frames", c.frames));
    c.flush_batch = static_cast<uint32_t>(flags.GetInt("flush_batch", c.flush_batch));
    c.flush_high_water = flags.GetDouble("flush_water", c.flush_high_water);
    c.target_utilization =
        flags.GetDouble("utilization", c.target_utilization);
    c.seed = flags.GetInt("seed", c.seed);
    return c;
  }

  tpcc::TpccScale Scale() const {
    tpcc::TpccScale scale;
    scale.warehouses = warehouses;
    return scale;
  }

  /// NewOrder share of warmup + measured transactions (45% of the mix).
  uint64_t ExpectedNewOrders() const {
    return (warmup + transactions) * 45 / 100;
  }

  db::DatabaseOptions DbOptions() const {
    db::DatabaseOptions o;
    o.geometry.channels = channels;
    o.geometry.dies_per_channel = dies / channels;
    o.geometry.pages_per_block = 64;
    o.geometry.page_size = 4096;
    o.geometry.blocks_per_die = tpcc::SuggestBlocksPerDie(
        Scale(), o.geometry.page_size, ExpectedNewOrders(), dies,
        o.geometry.pages_per_block, target_utilization);
    // Keep blocks a multiple of the plane count (geometry requirement).
    const uint32_t planes = o.geometry.planes_per_die;
    o.geometry.blocks_per_die =
        (o.geometry.blocks_per_die + planes - 1) / planes * planes;
    o.buffer.frame_count = frames;
    o.buffer.flush_batch = flush_batch;
    o.buffer.flush_high_water = flush_high_water;
    return o;
  }
};

/// Die busy time of every region of `db`, in RegionManager order (empty
/// on the FTL backend).
inline std::vector<SimTime> RegionDieBusyTimes(tpcc::TpccDb* db) {
  std::vector<SimTime> busy;
  if (db->database()->regions() == nullptr) return busy;
  for (auto* rg : db->database()->regions()->regions()) {
    busy.push_back(rg->DieBusyTime());
  }
  return busy;
}

/// Load TPC-C under `placement` and run `transactions` of the standard mix.
/// Pass `out_db` to keep the loaded database for post-run inspection, and
/// `run_busy` to receive each region's die busy time accumulated during the
/// driver run (warmup included, load excluded; RegionDieBusyTimes order).
inline Result<tpcc::DriverReport> RunTpcc(
    const TpccBenchConfig& config, const tpcc::PlacementConfig& placement,
    db::Backend backend = db::Backend::kNoFtl,
    std::unique_ptr<tpcc::TpccDb>* out_db = nullptr,
    std::vector<SimTime>* run_busy = nullptr) {
  tpcc::TpccDbOptions options;
  options.db = config.DbOptions();
  options.db.backend = backend;
  options.scale = config.Scale();
  options.placement = placement;
  options.seed = config.seed;

  auto db = tpcc::TpccDb::CreateAndLoad(options);
  if (!db.ok()) return db.status();

  tpcc::DriverOptions driver_options;
  driver_options.terminals = config.terminals;
  driver_options.max_transactions = config.transactions;
  driver_options.warmup_transactions = config.warmup;
  driver_options.seed = config.seed + 1;
  const std::vector<SimTime> busy_before = RegionDieBusyTimes(db->get());
  tpcc::TpccDriver driver(db->get(), driver_options);
  auto report = driver.Run();
  if (!report.ok()) return report.status();
  report->label = placement.label;
  if (run_busy != nullptr) {
    *run_busy = RegionDieBusyTimes(db->get());
    for (size_t i = 0; i < run_busy->size(); i++) {
      (*run_busy)[i] -= busy_before[i];
    }
  }
  if (out_db != nullptr) *out_db = std::move(*db);
  return *report;
}

/// Per-region one-line diagnostics (utilization, GC traffic, and RunTpcc's
/// `run_busy` as die busy seconds per die).
inline void PrintRegionDetail(tpcc::TpccDb* db,
                              const std::vector<SimTime>& run_busy) {
  if (db->database()->regions() == nullptr) return;
  printf("  %-10s %5s %10s %10s %6s %12s %12s %10s %10s\n", "region", "dies",
         "valid", "physical", "util", "host_writes", "copybacks", "erases",
         "busy s/die");
  size_t i = 0;
  for (auto* rg : db->database()->regions()->regions()) {
    const auto& m = rg->mapper();
    const double busy_per_die = static_cast<double>(run_busy.at(i++)) / 1e6 /
                                static_cast<double>(m.die_count());
    printf("  %-10s %5zu %10llu %10llu %5.1f%% %12llu %12llu %10llu %10.1f\n",
           rg->name().c_str(), m.die_count(),
           static_cast<unsigned long long>(m.valid_pages()),
           static_cast<unsigned long long>(m.physical_pages()),
           100.0 * static_cast<double>(m.valid_pages()) /
               static_cast<double>(m.physical_pages()),
           static_cast<unsigned long long>(m.stats().host_writes),
           static_cast<unsigned long long>(m.stats().gc_copybacks),
           static_cast<unsigned long long>(m.stats().gc_erases),
           busy_per_die);
  }
}

/// Formatting helpers for paper-vs-measured tables.
inline void PrintRule(int width = 86) {
  for (int i = 0; i < width; i++) putchar('-');
  putchar('\n');
}

/// Minimal ordered JSON object builder for machine-readable benchmark
/// results (the `BENCH_<name>.json` files CI uploads as artifacts). Only
/// what the benches need: numbers, strings and nested objects.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Set(const std::string& key, int v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Set(const std::string& key, double v) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(key, buf);
  }
  JsonObject& Set(const std::string& key, const std::string& v) {
    std::string escaped = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    escaped += '"';
    return Raw(key, escaped);
  }
  JsonObject& Set(const std::string& key, const JsonObject& v) {
    return Raw(key, v.ToString());
  }
  JsonObject& SetArray(const std::string& key,
                       const std::vector<JsonObject>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); i++) {
      if (i > 0) out += ", ";
      out += items[i].ToString();
    }
    out += "]";
    return Raw(key, out);
  }

  std::string ToString() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); i++) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "}";
    return out;
  }

  bool WriteFile(const std::string& path) const {
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = ToString();
    fprintf(f, "%s\n", body.c_str());
    fclose(f);
    return true;
  }

 private:
  JsonObject& Raw(const std::string& key, std::string value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace noftl::bench
