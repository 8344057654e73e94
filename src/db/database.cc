#include "db/database.h"

#include "common/logging.h"

namespace noftl::db {

Database::Database(const DatabaseOptions& options) : options_(options) {}
Database::~Database() = default;

Result<std::unique_ptr<Database>> Database::Open(
    const DatabaseOptions& options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  // Flash-native MVCC: every region mapper created below (programmatic or
  // DDL, fanned out per shard) watches this horizon; when no snapshot is
  // ever opened the horizon stays at zero and the mappers behave
  // byte-identically to a build without it.
  db->snapshots_ = std::make_unique<mvcc::SnapshotManager>();
  db->options_.default_mapper.snapshots = db->snapshots_->horizon();
  // One full device stack per shard behind the shard router (one shard by
  // default); everything above the SpaceProvider line is the same at every
  // shard count. The router validates the geometry and the shard count.
  shard::ShardRouterOptions ro;
  ro.shard = options.sharding;
  ro.backend = options.backend == Backend::kNoFtl ? shard::ShardBackend::kNoFtl
                                                  : shard::ShardBackend::kFtl;
  ro.geometry = options.geometry;
  ro.timing = options.timing;
  ro.ftl = options.ftl;
  ro.global_wl = options.global_wl;
  ro.scheduler = options.scheduler;
  auto router = shard::ShardRouter::Open(ro);
  if (!router.ok()) return router.status();
  db->shard_router_ = std::move(*router);
  db->buffer_ = std::make_unique<buffer::BufferPool>(
      options.buffer, options.geometry.page_size);
  return db;
}

void Database::ForEachDevice(
    const std::function<void(flash::FlashDevice*)>& fn) {
  for (size_t s = 0; s < shard_router_->shard_count(); s++) {
    fn(shard_router_->device(s));
  }
}

DatabaseHealth Database::UpdateHealth() {
  DatabaseHealth health;
  health.shards = shard_router_->UpdateHealth();
  for (const shard::ShardHealthStatus& h : health.shards) {
    if (h.degraded) health.any_degraded = true;
  }
  return health;
}

void Database::ResetDeviceStats() {
  ForEachDevice([](flash::FlashDevice* dev) { dev->stats().Reset(); });
}

void Database::SetShardPlacementHint(uint64_t key) {
  shard_router_->SetPlacementHint(key);
}

void Database::ClearShardPlacementHint() {
  shard_router_->ClearPlacementHint();
}

Result<region::Region*> Database::CreateRegion(
    const region::RegionOptions& options_in) {
  if (options_.backend != Backend::kNoFtl) {
    return Status::NotSupported(
        "regions require native flash (the FTL hides the device)");
  }
  // Wire the database-wide snapshot horizon into the mapper unless the
  // caller supplied a horizon of their own (tests do, to drive a manager
  // directly). DDL-created regions inherit it via default_mapper.
  region::RegionOptions options = options_in;
  if (options.mapper.snapshots == nullptr) {
    options.mapper.snapshots = snapshots_->horizon();
  }
  // Fan out: one same-shaped region per shard, merged behind the router's
  // ShardedSpace. Shard 0's member is the representative handle.
  auto space = shard_router_->CreateRegion(options);
  if (!space.ok()) return space.status();
  for (size_t s = 0; s < shard_router_->shard_count(); s++) {
    region::Region* rg = shard_router_->region(s, options.name);
    if (rg != nullptr) snapshots_->RegisterMapper(&rg->mapper());
  }
  PersistCatalogEntry("REGION", options.name,
                      std::to_string(options.max_chips) + " dies x " +
                          std::to_string(shard_router_->shard_count()) +
                          " shards");
  return shard_router_->region(0, options.name);
}

Status Database::DropRegion(const std::string& name) {
  if (options_.backend != Backend::kNoFtl) {
    return Status::NotSupported("no regions under FTL backend");
  }
  // Refuse if any tablespace still references the region.
  for (const auto& [ts_name, rg_name] : ts_region_) {
    if (rg_name == name && tablespaces_.count(ts_name) != 0) {
      return Status::Busy("tablespace " + ts_name + " uses region " + name);
    }
  }
  // Unregister every shard's mapper before the drop destroys them; a failed
  // drop leaves the regions alive, so put them back then. (The router does
  // the same for its schedulers.)
  std::vector<ftl::OutOfPlaceMapper*> mappers;
  for (size_t s = 0; s < shard_router_->shard_count(); s++) {
    region::Region* rg = shard_router_->region(s, name);
    if (rg != nullptr) mappers.push_back(&rg->mapper());
  }
  for (ftl::OutOfPlaceMapper* m : mappers) snapshots_->UnregisterMapper(m);
  Status dropped = shard_router_->DropRegion(name);
  if (!dropped.ok()) {
    for (ftl::OutOfPlaceMapper* m : mappers) snapshots_->RegisterMapper(m);
  }
  return dropped;
}

Result<storage::Tablespace*> Database::CreateTablespace(
    const std::string& name, const std::string& region_name,
    uint32_t extent_pages) {
  if (tablespaces_.count(name) != 0) {
    return Status::AlreadyExists("tablespace " + name);
  }
  if (extent_pages == 0) extent_pages = options_.default_extent_pages;

  storage::SpaceProvider* provider = nullptr;
  if (options_.backend == Backend::kNoFtl) {
    if (region_name.empty()) {
      return Status::InvalidArgument(
          "tablespace needs REGION=... under native flash");
    }
    provider = shard_router_->space(region_name);
    if (provider == nullptr) return Status::NotFound("region " + region_name);
    ts_region_[name] = region_name;
  } else {
    if (!region_name.empty()) {
      return Status::NotSupported("REGION= is unavailable under FTL backend");
    }
    provider = shard_router_->ftl_space();
  }

  storage::TablespaceOptions ts_options;
  ts_options.name = name;
  ts_options.extent_pages = extent_pages;
  auto ts = std::make_unique<storage::Tablespace>(next_tablespace_id_++,
                                                  ts_options, provider);
  storage::Tablespace* out = ts.get();
  out->SetIoStats(&io_stats_);
  buffer_->RegisterTablespace(out);
  tablespaces_[name] = std::move(ts);
  PersistCatalogEntry("TABLESPACE", name, "region=" + region_name);
  return out;
}

Status Database::DropTablespace(const std::string& name) {
  auto it = tablespaces_.find(name);
  if (it == tablespaces_.end()) return Status::NotFound("tablespace " + name);
  storage::Tablespace* ts = it->second.get();
  for (const auto& [tname, table] : tables_) {
    if (table->tablespace() == ts) {
      return Status::Busy("table " + tname + " uses tablespace " + name);
    }
  }
  for (const auto& [iname, ts_name] : index_tablespace_) {
    if (ts_name == name) {
      return Status::Busy("index " + iname + " uses tablespace " + name);
    }
  }
  if (catalog_heap_ != nullptr && catalog_heap_->tablespace() == ts) {
    return Status::Busy("tablespace " + name + " holds the catalog");
  }
  if (ts->LivePages() != 0) {
    return Status::Busy("tablespace " + name + " still holds pages");
  }
  buffer_->DiscardTablespace(ts->tablespace_id());
  NOFTL_RETURN_IF_ERROR(ts->ReleaseExtents());
  ts_region_.erase(name);
  tablespaces_.erase(it);
  return Status::OK();
}

Result<storage::HeapFile*> Database::CreateTable(
    const std::string& name, const std::string& tablespace) {
  if (tables_.count(name) != 0) return Status::AlreadyExists("table " + name);
  auto ts_it = tablespaces_.find(tablespace);
  if (ts_it == tablespaces_.end()) {
    return Status::NotFound("tablespace " + tablespace);
  }
  auto heap = std::make_unique<storage::HeapFile>(
      next_object_id_++, name, ts_it->second.get(), buffer_.get());
  storage::HeapFile* out = heap.get();
  tables_[name] = std::move(heap);
  PersistCatalogEntry("TABLE", name, "tablespace=" + tablespace);
  return out;
}

Result<index::BTree*> Database::CreateIndex(const std::string& name,
                                            const std::string& tablespace) {
  if (indexes_.count(name) != 0) return Status::AlreadyExists("index " + name);
  auto ts_it = tablespaces_.find(tablespace);
  if (ts_it == tablespaces_.end()) {
    return Status::NotFound("tablespace " + tablespace);
  }
  auto tree = index::BTree::Create(next_object_id_++, name,
                                   ts_it->second.get(), buffer_.get(),
                                   &ddl_ctx_);
  if (!tree.ok()) return tree.status();
  indexes_[name] = std::unique_ptr<index::BTree>(*tree);
  index_tablespace_[name] = tablespace;
  PersistCatalogEntry("INDEX", name, "tablespace=" + tablespace);
  return *tree;
}

Status Database::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  // Under NoFTL the drop is also a physical deallocation: the pages are
  // trimmed, so GC can reclaim them without relocation.
  NOFTL_RETURN_IF_ERROR(it->second->DropStorage(&ddl_ctx_));
  tables_.erase(it);
  schemas_.erase(name);
  return Status::OK();
}

void Database::PersistCatalogEntry(const std::string& kind,
                                   const std::string& name,
                                   const std::string& detail) {
  if (!options_.persist_catalog || catalog_heap_ == nullptr) return;
  const std::string record = kind + "|" + name + "|" + detail;
  auto rid = catalog_heap_->Insert(&ddl_ctx_, record);
  if (!rid.ok()) {
    NOFTL_LOG_WARN("catalog append failed: %s", rid.status().ToString().c_str());
  }
}

Status Database::AttachCatalog(const std::string& tablespace_name) {
  auto it = tablespaces_.find(tablespace_name);
  if (it == tablespaces_.end()) {
    return Status::NotFound("tablespace " + tablespace_name);
  }
  catalog_heap_ = std::make_unique<storage::HeapFile>(
      /*object_id=*/0, "DBMS_METADATA", it->second.get(), buffer_.get());
  return Status::OK();
}

Status Database::ExecuteDdl(const std::string& sql) {
  auto stmt = sql::ParseDdl(sql);
  if (!stmt.ok()) return stmt.status();
  return ApplyStatement(*stmt);
}

Status Database::ExecuteScript(const std::string& sql) {
  auto stmts = sql::ParseScript(sql);
  if (!stmts.ok()) return stmts.status();
  for (const auto& stmt : *stmts) {
    NOFTL_RETURN_IF_ERROR(ApplyStatement(stmt));
  }
  return Status::OK();
}

Status Database::ApplyStatement(const sql::DdlStatement& stmt) {
  if (const auto* s = std::get_if<sql::CreateRegionStmt>(&stmt)) {
    region::RegionOptions options;
    options.name = s->name;
    options.max_chips = s->max_chips;
    options.max_channels = s->max_channels;
    options.max_size_bytes = s->max_size_bytes;
    options.mapper = options_.default_mapper;
    return CreateRegion(options).status();
  }
  if (const auto* s = std::get_if<sql::CreateTablespaceStmt>(&stmt)) {
    uint32_t extent_pages = options_.default_extent_pages;
    if (s->extent_size_bytes != 0) {
      extent_pages = static_cast<uint32_t>(s->extent_size_bytes /
                                           options_.geometry.page_size);
      if (extent_pages == 0) {
        return Status::InvalidArgument("EXTENT SIZE below one page");
      }
    }
    return CreateTablespace(s->name, s->region, extent_pages).status();
  }
  if (const auto* s = std::get_if<sql::CreateTableStmt>(&stmt)) {
    if (s->tablespace.empty()) {
      return Status::InvalidArgument("CREATE TABLE needs TABLESPACE");
    }
    auto table = CreateTable(s->name, s->tablespace);
    if (!table.ok()) return table.status();
    schemas_[s->name] = TableSchema{s->name, s->columns, s->tablespace};
    return Status::OK();
  }
  if (const auto* s = std::get_if<sql::CreateIndexStmt>(&stmt)) {
    std::string ts = s->tablespace;
    if (ts.empty()) {
      const TableSchema* schema = GetSchema(s->table);
      if (schema == nullptr) {
        return Status::NotFound("table " + s->table + " for index");
      }
      ts = schema->tablespace;
    }
    return CreateIndex(s->name, ts).status();
  }
  if (const auto* s = std::get_if<sql::AlterRegionStmt>(&stmt)) {
    if (options_.backend != Backend::kNoFtl) {
      return Status::NotSupported("no regions under FTL backend");
    }
    if (s->add_chips > 0) {
      return shard_router_->GrowRegion(
          s->name, static_cast<uint32_t>(s->add_chips), ddl_ctx_.now);
    }
    return shard_router_->ShrinkRegion(
        s->name, static_cast<uint32_t>(s->remove_chips), ddl_ctx_.now);
  }
  if (const auto* s = std::get_if<sql::DropStmt>(&stmt)) {
    switch (s->kind) {
      case sql::DropStmt::Kind::kRegion: return DropRegion(s->name);
      case sql::DropStmt::Kind::kTable: return DropTable(s->name);
      case sql::DropStmt::Kind::kTablespace:
        return DropTablespace(s->name);
      case sql::DropStmt::Kind::kIndex: {
        auto it = indexes_.find(s->name);
        if (it == indexes_.end()) return Status::NotFound("index " + s->name);
        NOFTL_RETURN_IF_ERROR(it->second->DropStorage(&ddl_ctx_));
        indexes_.erase(it);
        index_tablespace_.erase(s->name);
        return Status::OK();
      }
    }
  }
  return Status::InvalidArgument("unhandled statement");
}

std::string Database::ObjectNameOf(uint32_t object_id) const {
  if (object_id == 0) return "DBMS_METADATA";
  for (const auto& [name, table] : tables_) {
    if (table->object_id() == object_id) return name;
  }
  for (const auto& [name, index] : indexes_) {
    if (index->object_id() == object_id) return name;
  }
  return "";
}

storage::Tablespace* Database::GetTablespace(const std::string& name) {
  auto it = tablespaces_.find(name);
  return it == tablespaces_.end() ? nullptr : it->second.get();
}

storage::HeapFile* Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

index::BTree* Database::GetIndex(const std::string& name) {
  auto it = indexes_.find(name);
  return it == indexes_.end() ? nullptr : it->second.get();
}

const TableSchema* Database::GetSchema(const std::string& table) const {
  auto it = schemas_.find(table);
  return it == schemas_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) {
    (void)t;
    out.push_back(name);
  }
  return out;
}

Status Database::Checkpoint(txn::TxnContext* ctx) {
  NOFTL_RETURN_IF_ERROR(buffer_->FlushAll(ctx));
  // With every dirty page on flash, persist the translation state too: a
  // crash after this point recovers each mapper from its checkpoint with a
  // per-die delta scan instead of a full OOB scan. Regions occupy disjoint
  // die sets and shards are independent devices, so every mapper
  // checkpoints at the same instant and the caller waits only for the
  // slowest one, not their sum. The router quiesces its schedulers for the
  // fan-out and treats each mapper checkpoint as best-effort (older epochs
  // and ultimately the full OOB scan stay the recovery path), so a failed
  // checkpoint write never turns a successful flush into a failure.
  SimTime latest = ctx->now;
  NOFTL_RETURN_IF_ERROR(shard_router_->Checkpoint(ctx->now, &latest));
  ctx->AdvanceTo(latest);
  return Status::OK();
}

Result<uint64_t> Database::OpenSnapshot(txn::TxnContext* ctx) {
  if (options_.backend != Backend::kNoFtl) {
    return Status::NotSupported(
        "snapshots require native flash (the FTL hides the version store)");
  }
  // The snapshot covers the on-flash state: flush every dirty buffer first
  // so pages the snapshot will read have a flash copy at or below the
  // drawn sequence. Writers that land after the flush supersede those
  // copies out-of-place, and the mappers retain them for this snapshot.
  NOFTL_RETURN_IF_ERROR(buffer_->FlushAll(ctx));
  return snapshots_->Open();
}

void Database::ReleaseSnapshot(uint64_t snapshot) {
  snapshots_->Release(snapshot);
}

uint64_t Database::TickSchedulers(SimTime now) {
  return shard_router_->TickSchedulers(now);
}

void Database::StartSchedulers() { shard_router_->StartSchedulers(); }

void Database::StopSchedulers() { shard_router_->StopSchedulers(); }

sched::SchedulerStats Database::SchedulerStatsTotal() const {
  return shard_router_->SchedulerStatsTotal();
}

}  // namespace noftl::db
