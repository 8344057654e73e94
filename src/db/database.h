// Database facade: wires a shard router (one flash device stack per shard,
// each NoFTL regions | FTL block device) <- tablespaces <- buffer pool <-
// heap files / B+-trees, with a catalog and the paper's DDL on top. There is
// one storage stack: the default is one shard, whose sharded spaces pass
// every batch through to the device stack untouched.
//
// Two backends, matching the two architectures the paper compares:
//   * Backend::kNoFtl — regions are first-class; tablespaces bind to regions
//     (CREATE TABLESPACE ... REGION=...), object ids flow into flash OOB
//     metadata and GC is per-region.
//   * Backend::kFtl   — everything lives behind a page-mapping FTL block
//     device; regions are unavailable (CREATE REGION fails), placement
//     control is impossible — exactly the limitation §1 describes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "flash/device.h"
#include "ftl/page_ftl.h"
#include "index/btree.h"
#include "mvcc/snapshot_manager.h"
#include "noftl/region_manager.h"
#include "sched/background_scheduler.h"
#include "shard/shard_router.h"
#include "sql/ddl.h"
#include "storage/heap_file.h"
#include "storage/object_stats.h"
#include "storage/space_provider.h"
#include "storage/tablespace.h"
#include "txn/txn.h"

namespace noftl::db {

enum class Backend : uint8_t {
  kNoFtl = 0,  ///< native flash, regions (the paper's architecture)
  kFtl = 1,    ///< traditional SSD behind a block interface (baseline)
};

struct DatabaseOptions {
  flash::FlashGeometry geometry;
  flash::FlashTiming timing;
  buffer::BufferOptions buffer;
  Backend backend = Backend::kNoFtl;
  ftl::FtlOptions ftl;  ///< used when backend == kFtl
  region::GlobalWlOptions global_wl;
  /// Mapper defaults for regions created through DDL.
  ftl::MapperOptions default_mapper;
  /// EXTENT SIZE default when DDL omits it (pages).
  uint32_t default_extent_pages = 32;
  /// Device stacks behind the shard router: one full device stack per shard
  /// (geometry is PER SHARD); regions fan out across every shard and
  /// tablespaces stripe/partition their extents by `sharding.placement`.
  /// The default, one shard, is the single-device stack (0 is rejected).
  shard::ShardOptions sharding;
  /// When true, every DDL statement also appends a record to an internal
  /// catalog heap ("DBMS-metadata" in the paper's Figure 2), once a
  /// metadata tablespace has been designated.
  bool persist_catalog = true;
  /// Background-service scheduler (idle-time GC/scrub/WL/checkpoint with
  /// write-admission control): one scheduler per shard stack when enabled.
  /// Disabled by default — the single-thread inline-housekeeping path stays
  /// byte-identical.
  sched::SchedulerOptions scheduler;
};

/// Aggregate health of the stack's devices, as of the last UpdateHealth(),
/// one entry per shard. The router's hard-fault budget applies at every
/// shard count: a 1-shard database with a budget goes read-only once its
/// device exceeds it (budget 0, the default, never degrades).
struct DatabaseHealth {
  bool any_degraded = false;
  std::vector<shard::ShardHealthStatus> shards;
};

/// Table schema captured from DDL (documentation/catalog only — the
/// engine stores rows as opaque records).
struct TableSchema {
  std::string name;
  std::vector<sql::ColumnDef> columns;
  std::string tablespace;
};

class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const DatabaseOptions& options);
  ~Database();

  const DatabaseOptions& options() const { return options_; }
  /// Shard 0's device, region manager (null under kFtl) and FTL (null
  /// under kNoFtl): the whole stack with one shard; use shards() /
  /// ForEachDevice for the whole fleet.
  flash::FlashDevice* device() { return shard_router_->device(0); }
  region::RegionManager* regions() { return shard_router_->regions(0); }
  ftl::PageMappingFtl* ftl() { return shard_router_->ftl(0); }
  buffer::BufferPool* buffer() { return buffer_.get(); }

  /// The shard router (never null).
  shard::ShardRouter* shards() { return shard_router_.get(); }
  uint32_t shard_count() const {
    return static_cast<uint32_t>(shard_router_->shard_count());
  }

  /// Re-read fault counters on every device, apply the shard router's
  /// hard-fault budget (degrading shards to read-only where exceeded), and
  /// report. Callers poll this between batches of work; degradation is
  /// sticky until the database is reopened.
  DatabaseHealth UpdateHealth();

  /// Visit every device of the stack (one per shard).
  void ForEachDevice(const std::function<void(flash::FlashDevice*)>& fn);
  /// Reset operation stats on every device.
  void ResetDeviceStats();

  /// Override the placement key for subsequent extent allocations under
  /// ShardPlacement::kByKey (e.g. the TPC-C loader/driver pinning a
  /// warehouse to one shard). With one shard every key maps to shard 0.
  void SetShardPlacementHint(uint64_t key);
  void ClearShardPlacementHint();

  // --- Background schedulers (options.scheduler.enabled) ---

  /// Shard 0's scheduler (null when disabled; the router owns one per
  /// shard, see shards()->scheduler(s)).
  sched::BackgroundScheduler* scheduler() {
    return shard_router_->scheduler(0);
  }
  /// Deterministic synchronous mode: run one scheduling pass on every
  /// scheduler of the stack at sim time `now` (the driver calls this
  /// between transactions). Returns background pages moved; 0 — and no
  /// observable effect — when the scheduler is disabled.
  uint64_t TickSchedulers(SimTime now);
  /// Service-thread mode: spawn / join the schedulers' service threads.
  void StartSchedulers();
  void StopSchedulers();
  /// Counter totals over every scheduler of the stack (zeros when disabled).
  sched::SchedulerStats SchedulerStatsTotal() const;

  /// Context used for DDL / load-time page formatting; its clock rides along
  /// with whatever the caller last ran.
  txn::TxnContext* ddl_context() { return &ddl_ctx_; }

  // --- Flash-native MVCC snapshots (native-flash backend only) ---

  /// Open a snapshot of the database as of now: flushes every dirty buffer
  /// (the snapshot covers what is on flash, not what sits dirty in the
  /// pool), then pins a version horizon across every region mapper. Returns
  /// the snapshot handle; store it in TxnContext::snapshot_seq to run reads
  /// against it. NotSupported under the FTL backend — the block interface
  /// cannot expose the out-of-place copies the version store is made of.
  Result<uint64_t> OpenSnapshot(txn::TxnContext* ctx);
  /// Release a snapshot handle: unpins the horizon and eagerly reclaims
  /// retained versions no other live snapshot can read.
  void ReleaseSnapshot(uint64_t snapshot);
  mvcc::SnapshotManager* snapshots() { return snapshots_.get(); }

  // --- DDL (programmatic) ---

  Result<region::Region*> CreateRegion(const region::RegionOptions& options);
  Status DropRegion(const std::string& name);

  /// `region_name` must name a region under kNoFtl and be empty under kFtl.
  Result<storage::Tablespace*> CreateTablespace(const std::string& name,
                                                const std::string& region_name,
                                                uint32_t extent_pages);

  /// Drop an empty tablespace: every object in it must already be dropped.
  /// Its extents return to the space provider for reuse, so create/drop
  /// cycles do not leak logical space.
  Status DropTablespace(const std::string& name);

  Result<storage::HeapFile*> CreateTable(const std::string& name,
                                         const std::string& tablespace);
  Result<index::BTree*> CreateIndex(const std::string& name,
                                    const std::string& tablespace);
  Status DropTable(const std::string& name);

  // --- DDL (the paper's SQL dialect) ---

  Status ExecuteDdl(const std::string& sql);
  Status ExecuteScript(const std::string& sql);

  // --- Catalog lookups ---

  storage::Tablespace* GetTablespace(const std::string& name);
  storage::HeapFile* GetTable(const std::string& name);
  index::BTree* GetIndex(const std::string& name);
  const TableSchema* GetSchema(const std::string& table) const;
  std::vector<std::string> TableNames() const;

  /// Designate the tablespace that holds the persistent catalog (the
  /// "DBMS-metadata" object); subsequent DDL appends records there.
  Status AttachCatalog(const std::string& tablespace_name);

  /// Per-object I/O profile (page reads/writes attributed to tables and
  /// indexes) — the statistics intelligent placement is derived from.
  storage::ObjectIoStats* io_stats() { return &io_stats_; }

  /// Name of the object with the given id ("" if unknown; 0 is the catalog).
  std::string ObjectNameOf(uint32_t object_id) const;

  /// Write all dirty pages and wait, then checkpoint every mapper's
  /// translation state to its reserved flash blocks (shutdown path; see
  /// MapperOptions::checkpoint_slots). After this, a crash recovers via
  /// checkpoint + per-die delta scan instead of a full OOB scan.
  Status Checkpoint(txn::TxnContext* ctx);

 private:
  explicit Database(const DatabaseOptions& options);

  Status ApplyStatement(const sql::DdlStatement& stmt);
  void PersistCatalogEntry(const std::string& kind, const std::string& name,
                           const std::string& detail);

  DatabaseOptions options_;
  /// Snapshot manager, declared before the device stacks: region mappers
  /// watch its VersionHorizon through MapperOptions::snapshots, so it must
  /// be destroyed after every mapper (reverse declaration order).
  std::unique_ptr<mvcc::SnapshotManager> snapshots_;
  std::unique_ptr<shard::ShardRouter> shard_router_;
  std::unique_ptr<buffer::BufferPool> buffer_;

  // Catalog. Values are owned here; names are unique per kind.
  std::map<std::string, std::string> ts_region_;  ///< tablespace -> region
  std::map<std::string, std::unique_ptr<storage::Tablespace>> tablespaces_;
  std::map<std::string, std::unique_ptr<storage::HeapFile>> tables_;
  std::map<std::string, std::unique_ptr<index::BTree>> indexes_;
  std::map<std::string, TableSchema> schemas_;
  std::map<std::string, std::string> index_tablespace_;  ///< for drops

  std::unique_ptr<storage::HeapFile> catalog_heap_;
  storage::ObjectIoStats io_stats_;
  uint32_t next_tablespace_id_ = 1;
  uint32_t next_object_id_ = 1;
  txn::TxnContext ddl_ctx_;
};

}  // namespace noftl::db
