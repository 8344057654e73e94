// Database facade tests: both backends, DDL end-to-end (the paper's exact
// script), catalog behaviour, and the FTL backend's lack of placement
// control.
#include <gtest/gtest.h>

#include "db/database.h"

namespace noftl::db {
namespace {

DatabaseOptions SmallOptions(Backend backend = Backend::kNoFtl) {
  DatabaseOptions o;
  o.geometry.channels = 4;
  o.geometry.dies_per_channel = 4;
  o.geometry.planes_per_die = 1;
  o.geometry.blocks_per_die = 32;
  o.geometry.pages_per_block = 16;
  o.geometry.page_size = 512;
  o.buffer.frame_count = 128;
  o.backend = backend;
  o.default_extent_pages = 8;
  return o;
}

TEST(DatabaseTest, OpenValidatesGeometry) {
  DatabaseOptions o = SmallOptions();
  o.geometry.page_size = 1000;
  EXPECT_FALSE(Database::Open(o).ok());
}

TEST(DatabaseTest, OpenRejectsZeroShards) {
  DatabaseOptions o = SmallOptions();
  o.sharding.shard_count = 0;
  EXPECT_TRUE(Database::Open(o).status().IsInvalidArgument());
}

// Every database runs on a shard router; the default is one shard, and the
// single-device accessors are shard 0's stack.
TEST(DatabaseTest, DefaultOptionsOpenOneShardRouter) {
  for (const Backend backend : {Backend::kNoFtl, Backend::kFtl}) {
    SCOPED_TRACE(backend == Backend::kNoFtl ? "noftl" : "ftl");
    DatabaseOptions o = SmallOptions(backend);
    o.scheduler.enabled = true;
    auto db = Database::Open(o);
    ASSERT_TRUE(db.ok());
    shard::ShardRouter* router = (*db)->shards();
    ASSERT_NE(router, nullptr);
    EXPECT_EQ((*db)->shard_count(), 1u);
    EXPECT_EQ(router->shard_count(), 1u);
    EXPECT_EQ((*db)->device(), router->device(0));
    EXPECT_EQ((*db)->regions(), router->regions(0));
    EXPECT_EQ((*db)->ftl(), router->ftl(0));
    ASSERT_NE((*db)->scheduler(), nullptr);
    EXPECT_EQ((*db)->scheduler(), router->scheduler(0));
    size_t devices = 0;
    (*db)->ForEachDevice([&](flash::FlashDevice*) { devices++; });
    EXPECT_EQ(devices, 1u);

    std::string region;
    if (backend == Backend::kNoFtl) {
      ASSERT_NE((*db)->regions(), nullptr);
      ASSERT_TRUE((*db)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=4);").ok());
      region = "r";
    } else {
      EXPECT_EQ((*db)->regions(), nullptr);
      ASSERT_NE((*db)->ftl(), nullptr);
    }
    ASSERT_TRUE((*db)->CreateTablespace("ts", region, 8).ok());
    auto table = (*db)->CreateTable("T", "ts");
    ASSERT_TRUE(table.ok());
    txn::TxnContext ctx;
    std::vector<storage::RecordId> rids;
    for (int i = 0; i < 100; i++) {
      auto rid = (*table)->Insert(&ctx, "row-" + std::to_string(i));
      ASSERT_TRUE(rid.ok());
      rids.push_back(*rid);
    }
    ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
    ASSERT_TRUE((*table)->Update(&ctx, rids[7], "upd-7").ok());
    for (int i = 0; i < 100; i++) {
      auto row = (*table)->Read(&ctx, rids[i]);
      ASSERT_TRUE(row.ok());
      EXPECT_EQ(*row, i == 7 ? "upd-7" : "row-" + std::to_string(i));
    }
    ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
    EXPECT_GT(ctx.now, 0u);
    // The checkpoint flushed the pool: every row reached the flash stack.
    EXPECT_GT((*db)->device()->stats().host_writes(), 0u);
    EXPECT_TRUE((*db)->buffer()->VerifyIntegrity().ok());
    ASSERT_TRUE((*db)->DropTable("T").ok());
    ASSERT_TRUE((*db)->DropTablespace("ts").ok());
    if (backend == Backend::kNoFtl) {
      ASSERT_TRUE((*db)->DropRegion("r").ok());
    }
  }
}

// On one shard every batch passes through to shard 0 under a tagged ticket
// of shard 0's own. Its reap must still report the batch's finish time as
// max(issue, MaxComplete()), and an unknown or already-reaped ticket must
// still be a no-op that returns OK.
TEST(DatabaseTest, OneShardPassthroughTicketsReapLikeMergedBatches) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=4);").ok());
  shard::ShardedSpace* space = (*db)->shards()->space("r");
  ASSERT_NE(space, nullptr);
  auto extent = space->AllocateExtent(8);
  ASSERT_TRUE(extent.ok());
  const uint32_t page_size = space->page_size();
  const std::vector<char> data(page_size, 'w');

  const uint64_t passthrough_before = space->stats().passthrough_batches;
  storage::IoBatch writes;
  for (uint64_t i = 0; i < 4; i++) writes.AddWrite(*extent + i, data.data(), 1);
  storage::IoTicket ticket = 0;
  ASSERT_TRUE(space->SubmitBatch(&writes, 100, &ticket).ok());
  ASSERT_NE(ticket, 0u);
  EXPECT_EQ(space->PendingBatches(), 0u);  // no router-side entry
  SimTime done = 0;
  ASSERT_TRUE(space->WaitBatch(ticket, &done).ok());
  ASSERT_TRUE(writes.FirstError().ok());
  EXPECT_EQ(done, std::max<SimTime>(100, writes.MaxComplete()));
  EXPECT_GT(done, 100u);

  // Mixed outcome: the never-written page fails with NotFound and does not
  // count toward the finish time.
  std::vector<std::vector<char>> bufs(5, std::vector<char>(page_size));
  storage::IoBatch reads;
  for (uint64_t i = 0; i < 5; i++) reads.AddRead(*extent + i, bufs[i].data());
  const SimTime issue = done;
  ASSERT_TRUE(space->SubmitBatch(&reads, issue, &ticket).ok());
  SimTime read_done = 0;
  ASSERT_TRUE(space->WaitBatch(ticket, &read_done).ok());
  EXPECT_TRUE(reads.AllDone());
  EXPECT_TRUE(reads[4].status.IsNotFound());
  EXPECT_EQ(read_done, std::max(issue, reads.MaxComplete()));
  EXPECT_GT(read_done, issue);

  // Every request fails: the batch finishes at its issue time.
  storage::IoBatch missing;
  missing.AddRead(*extent + 6, bufs[0].data());
  ASSERT_TRUE(space->SubmitBatch(&missing, read_done, &ticket).ok());
  SimTime missing_done = 0;
  ASSERT_TRUE(space->WaitBatch(ticket, &missing_done).ok());
  EXPECT_TRUE(missing[0].status.IsNotFound());
  EXPECT_EQ(missing_done, read_done);
  EXPECT_EQ(space->stats().passthrough_batches, passthrough_before + 3);

  // Reaping again, or a ticket never issued, is an OK no-op that leaves
  // the completion time untouched.
  SimTime untouched = 7;
  EXPECT_TRUE(space->WaitBatch(ticket, &untouched).ok());
  EXPECT_TRUE(space->WaitBatch(ticket + 1000, &untouched).ok());
  EXPECT_TRUE(space->WaitBatch(12345, &untouched).ok());
  EXPECT_EQ(untouched, 7u);
}

TEST(DatabaseTest, PaperDdlScriptEndToEnd) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  // The exact statements from paper §2, sized for the test device.
  Status s = (*db)->ExecuteScript(
      "CREATE REGION rgHotTbl (MAX_CHIPS=8, MAX_CHANNELS=4, MAX_SIZE=1M);"
      "CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 4K);"
      "CREATE TABLE T(t_id NUMBER(3))TABLESPACE tsHotTbl;");
  ASSERT_TRUE(s.ok()) << s.ToString();

  region::Region* rg = (*db)->regions()->Get("rgHotTbl");
  ASSERT_NE(rg, nullptr);
  EXPECT_EQ(rg->dies().size(), 8u);
  EXPECT_EQ(rg->logical_pages(), (1u << 20) / 512);

  ASSERT_NE((*db)->GetTablespace("tsHotTbl"), nullptr);
  EXPECT_EQ((*db)->GetTablespace("tsHotTbl")->options().extent_pages, 8u);

  storage::HeapFile* table = (*db)->GetTable("T");
  ASSERT_NE(table, nullptr);
  const TableSchema* schema = (*db)->GetSchema("T");
  ASSERT_NE(schema, nullptr);
  ASSERT_EQ(schema->columns.size(), 1u);
  EXPECT_EQ(schema->columns[0].type, "NUMBER(3)");

  // The table is usable.
  txn::TxnContext ctx;
  auto rid = table->Insert(&ctx, "hello");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*table->Read(&ctx, *rid), "hello");
}

TEST(DatabaseTest, CheckpointPersistsMapperStateOfEveryRegion) {
  // Database::Checkpoint flushes the pool, then writes each region
  // mapper's checkpoint to its reserved flash blocks (the shutdown path).
  DatabaseOptions o = SmallOptions();
  o.default_mapper.checkpoint_slots = 2;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecuteScript(
                      "CREATE REGION r (MAX_CHIPS=2);"
                      "CREATE TABLESPACE ts (REGION=r);"
                      "CREATE TABLE T (a NUMBER(3)) TABLESPACE ts;")
                  .ok());
  storage::HeapFile* table = (*db)->GetTable("T");
  txn::TxnContext ctx;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Insert(&ctx, "row-" + std::to_string(i)).ok());
  }
  region::Region* rg = (*db)->regions()->Get("r");
  ASSERT_NE(rg, nullptr);
  EXPECT_EQ(rg->mapper().checkpoint_epoch(), 0u);
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  EXPECT_EQ(rg->mapper().checkpoint_epoch(), 1u);
  EXPECT_EQ(rg->mapper().stats().checkpoints_written, 1u);
  EXPECT_TRUE(rg->VerifyIntegrity().ok());
}

TEST(DatabaseTest, CheckpointPersistsFtlMapperState) {
  DatabaseOptions o = SmallOptions(Backend::kFtl);
  o.ftl.mapper.checkpoint_slots = 2;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  txn::TxnContext ctx;
  EXPECT_EQ((*db)->ftl()->mapper().checkpoint_epoch(), 0u);
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  EXPECT_EQ((*db)->ftl()->mapper().checkpoint_epoch(), 1u);
}

TEST(DatabaseTest, IndexInheritsTableTablespace) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=2);"
      "CREATE TABLESPACE ts (REGION=r);"
      "CREATE TABLE T (a NUMBER(3)) TABLESPACE ts;"
      "CREATE INDEX t_idx ON T (a);").ok());
  EXPECT_NE((*db)->GetIndex("t_idx"), nullptr);
}

TEST(DatabaseTest, DuplicateNamesRejected) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=2)").ok());
  EXPECT_TRUE((*db)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=2)")
                  .IsAlreadyExists());
  ASSERT_TRUE((*db)->ExecuteDdl("CREATE TABLESPACE ts (REGION=r)").ok());
  EXPECT_TRUE((*db)->ExecuteDdl("CREATE TABLESPACE ts (REGION=r)")
                  .IsAlreadyExists());
}

TEST(DatabaseTest, TablespaceNeedsExistingRegion) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->ExecuteDdl("CREATE TABLESPACE ts (REGION=ghost)")
                  .IsNotFound());
}

TEST(DatabaseTest, FtlBackendRejectsRegions) {
  auto db = Database::Open(SmallOptions(Backend::kFtl));
  ASSERT_TRUE(db.ok());
  // The block-device architecture cannot expose placement — CREATE REGION
  // must fail (this is the paper's criticism made executable).
  EXPECT_TRUE((*db)->ExecuteDdl("CREATE REGION r (MAX_CHIPS=2)")
                  .IsNotSupported());
  // Tablespaces work, but without a REGION clause.
  ASSERT_TRUE((*db)->CreateTablespace("ts", "", 8).ok());
  EXPECT_TRUE((*db)->CreateTablespace("ts2", "r", 8).status().IsNotSupported());

  auto table = (*db)->CreateTable("T", "ts");
  ASSERT_TRUE(table.ok());
  txn::TxnContext ctx;
  auto rid = (*table)->Insert(&ctx, "ftl row");
  ASSERT_TRUE(rid.ok());
  EXPECT_EQ(*(*table)->Read(&ctx, *rid), "ftl row");
}

TEST(DatabaseTest, DropRegionRules) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=2); CREATE TABLESPACE ts (REGION=r);").ok());
  // Region referenced by a tablespace cannot be dropped.
  EXPECT_TRUE((*db)->ExecuteDdl("DROP REGION r").IsBusy());
  // Unreferenced region can.
  ASSERT_TRUE((*db)->ExecuteDdl("CREATE REGION r2 (MAX_CHIPS=2)").ok());
  EXPECT_TRUE((*db)->ExecuteDdl("DROP REGION r2").ok());
}

TEST(DatabaseTest, CatalogPersistsDdl) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION meta (MAX_CHIPS=2);"
      "CREATE TABLESPACE ts_meta (REGION=meta);").ok());
  ASSERT_TRUE((*db)->AttachCatalog("ts_meta").ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION data (MAX_CHIPS=4);"
      "CREATE TABLESPACE ts_data (REGION=data);"
      "CREATE TABLE T (x NUMBER(1)) TABLESPACE ts_data;").ok());
  // Catalog records landed in ts_meta's pages (the DBMS-metadata object of
  // Figure 2): the metadata tablespace must have grown.
  EXPECT_GT((*db)->GetTablespace("ts_meta")->page_count(), 0u);
}

TEST(DatabaseTest, TableNamesEnumerates) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=2); CREATE TABLESPACE ts (REGION=r);"
      "CREATE TABLE B (x NUMBER(1)) TABLESPACE ts;"
      "CREATE TABLE A (x NUMBER(1)) TABLESPACE ts;").ok());
  EXPECT_EQ((*db)->TableNames(), (std::vector<std::string>{"A", "B"}));
}

TEST(DatabaseTest, CheckpointFlushesDirtyPages) {
  auto db = Database::Open(SmallOptions());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->ExecuteScript(
      "CREATE REGION r (MAX_CHIPS=2); CREATE TABLESPACE ts (REGION=r);"
      "CREATE TABLE T (x NUMBER(1)) TABLESPACE ts;").ok());
  txn::TxnContext ctx;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE((*db)->GetTable("T")->Insert(&ctx, "row").ok());
  }
  ASSERT_TRUE((*db)->Checkpoint(&ctx).ok());
  EXPECT_EQ((*db)->buffer()->dirty_count(), 0u);
  // Data is on flash now.
  EXPECT_GT((*db)->device()->stats().host_writes(), 0u);
}

TEST(DatabaseTest, DropTablespaceRules) {
  auto db = Database::Open(SmallOptions(Backend::kFtl));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTablespace("ts", "", 8).ok());
  ASSERT_TRUE((*db)->CreateTable("T", "ts").ok());
  // A tablespace with live objects cannot be dropped...
  EXPECT_TRUE((*db)->ExecuteDdl("DROP TABLESPACE ts").IsBusy());
  // ...but once its tables are gone it can, and the name is reusable.
  ASSERT_TRUE((*db)->DropTable("T").ok());
  EXPECT_TRUE((*db)->ExecuteDdl("DROP TABLESPACE ts").ok());
  EXPECT_EQ((*db)->GetTablespace("ts"), nullptr);
  EXPECT_TRUE((*db)->CreateTablespace("ts", "", 8).ok());
}

TEST(DatabaseTest, CreateDropLoopsDoNotExhaustTheFtlLbaSpace) {
  // Regression: FtlSpace used to be a pure bump allocator — FreeExtent
  // trimmed the pages but leaked the LBA range forever, so create/drop
  // cycles marched next_lba_ off the end of the device. The free-span list
  // must recycle the ranges indefinitely.
  auto db = Database::Open(SmallOptions(Backend::kFtl));
  ASSERT_TRUE(db.ok());
  const uint64_t sectors = (*db)->ftl()->sector_count();
  txn::TxnContext ctx;

  uint64_t pages_cycled = 0;
  const std::string row(400, 'r');  // ~1 row per 512-byte page
  int cycle = 0;
  // Run until the cumulative allocation is well past the LBA space — the
  // old allocator fails with NoSpace roughly half-way through this loop.
  while (pages_cycled < 2 * sectors) {
    const std::string ts = "ts_loop";
    ASSERT_TRUE((*db)->CreateTablespace(ts, "", 8).ok()) << "cycle " << cycle;
    auto table = (*db)->CreateTable("T", ts);
    ASSERT_TRUE(table.ok()) << "cycle " << cycle;
    for (int i = 0; i < 64; i++) {
      ASSERT_TRUE((*table)->Insert(&ctx, row).ok())
          << "cycle " << cycle << " insert " << i;
    }
    pages_cycled += (*db)->GetTablespace(ts)->page_count();
    ASSERT_TRUE((*db)->DropTable("T").ok());
    ASSERT_TRUE((*db)->DropTablespace(ts).ok()) << "cycle " << cycle;
    cycle++;
  }
  EXPECT_GT(cycle, 2);
}

}  // namespace
}  // namespace noftl::db
