// TPC-C tests: placement math, loader population counts, per-transaction
// behaviour, and database consistency checks after a driver run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "shard/shard_router.h"
#include "shard/sharded_space.h"
#include "tpcc/driver.h"
#include "tpcc/placement.h"
#include "tpcc/tpcc_db.h"
#include "tpcc/transactions.h"

namespace noftl::tpcc {
namespace {

db::DatabaseOptions SmallDeviceOptions(db::Backend backend) {
  db::DatabaseOptions o;
  o.geometry.channels = 4;
  o.geometry.dies_per_channel = 4;  // 16 dies
  o.geometry.planes_per_die = 1;
  o.geometry.blocks_per_die = 64;
  o.geometry.pages_per_block = 16;
  o.geometry.page_size = 2048;
  // Small pool relative to the database so transactions do real flash I/O.
  o.buffer.frame_count = 96;
  o.backend = backend;
  o.default_extent_pages = 8;
  return o;
}

TpccDbOptions SmallTpcc(db::Backend backend = db::Backend::kNoFtl,
                        bool multi_region = false) {
  TpccDbOptions o;
  o.db = SmallDeviceOptions(backend);
  o.scale = TpccScale::Small();
  o.extent_pages = 8;
  if (backend == db::Backend::kNoFtl) {
    o.placement = multi_region
                      ? DeriveFigure2Placement(
                            o.scale, o.db.geometry.page_size,
                            /*expected_new_orders=*/500,
                            o.db.geometry.total_dies(),
                            UsablePagesPerDie(o.db.geometry.blocks_per_die,
                                              o.db.geometry.pages_per_block))
                      : TraditionalPlacement(o.db.geometry.total_dies());
  }
  return o;
}

// --- Placement -------------------------------------------------------

TEST(PlacementTest, TraditionalIsOneRegionWithEverything) {
  PlacementConfig c = TraditionalPlacement(64);
  ASSERT_EQ(c.regions.size(), 1u);
  EXPECT_EQ(c.regions[0].dies, 64u);
  EXPECT_EQ(c.regions[0].objects.size(), AllTpccObjects().size());
}

TEST(PlacementTest, PaperFigure2MatchesThePaper) {
  PlacementConfig c = PaperFigure2Placement(64);
  ASSERT_EQ(c.regions.size(), 6u);
  EXPECT_EQ(c.TotalDies(), 64u);
  // The exact die counts from Figure 2.
  EXPECT_EQ(c.regions[0].dies, 2u);   // DBMS-metadata; HISTORY
  EXPECT_EQ(c.regions[1].dies, 11u);  // ORDERLINE; NEW_ORDER; ORDER
  EXPECT_EQ(c.regions[2].dies, 10u);  // CUSTOMER; C/I/S/W_IDX
  EXPECT_EQ(c.regions[3].dies, 29u);  // OL_IDX; STOCK
  EXPECT_EQ(c.regions[4].dies, 6u);   // C_NAME_IDX; ITEM; D_IDX
  EXPECT_EQ(c.regions[5].dies, 6u);   // WAREHOUSE; DISTRICT; NO/O/O_CUST_IDX
  EXPECT_EQ(c.RegionOf("STOCK"), "rg_stock");
  EXPECT_EQ(c.RegionOf("HISTORY"), "rg_meta");
}

TEST(PlacementTest, EveryObjectPlacedExactlyOnce) {
  for (const PlacementConfig& c :
       {PaperFigure2Placement(64), TraditionalPlacement(16)}) {
    std::set<std::string> placed;
    for (const auto& r : c.regions) {
      for (const auto& o : r.objects) {
        EXPECT_TRUE(placed.insert(o).second) << o << " placed twice";
      }
    }
    for (const auto& o : AllTpccObjects()) {
      EXPECT_TRUE(placed.count(o)) << o << " unplaced in " << c.label;
    }
  }
}

TEST(PlacementTest, PaperFigure2RescalesToOtherDieCounts) {
  PlacementConfig c = PaperFigure2Placement(16);
  EXPECT_EQ(c.TotalDies(), 16u);
  for (const auto& r : c.regions) EXPECT_GE(r.dies, 1u);
}

TEST(PlacementTest, DerivedPlacementCoversDiesAndFitsFootprints) {
  TpccScale scale;  // full-size scale
  const uint32_t page_size = 4096;
  const uint64_t pages_per_die = 96ull * 64;
  PlacementConfig c = DeriveFigure2Placement(scale, page_size, 50000, 64,
                                             pages_per_die);
  EXPECT_EQ(c.TotalDies(), 64u);
  ASSERT_EQ(c.regions.size(), 6u);

  auto footprints = EstimateFootprints(scale, page_size, 50000);
  for (const auto& r : c.regions) {
    uint64_t pages = 0;
    for (const auto& o : r.objects) {
      for (const auto& f : footprints) {
        if (f.object == o) pages += f.pages;
      }
    }
    // The repair pass guarantees capacity > footprint.
    EXPECT_GT(static_cast<uint64_t>(r.dies) * pages_per_die, pages)
        << r.region_name;
  }
}

// The Figure 3 benchmark device: 1 full-scale warehouse grown by 90k
// NewOrders on 64 dies of 26 blocks (64 pages of 4 KiB each).
constexpr uint64_t kFigure3NewOrders = 90000;
constexpr uint32_t kFigure3Dies = 64;
const uint64_t kFigure3UsablePerDie = UsablePagesPerDie(26, 64);

TpccScale Figure3Scale() {
  TpccScale scale;
  scale.warehouses = 1;
  return scale;
}

/// Figure 2 groups' demand from EstimateFootprints (pages, reads, writes).
std::vector<RegionDemand> Figure2Demand(const TpccScale& scale,
                                        uint64_t new_orders) {
  const auto footprints = EstimateFootprints(scale, 4096, new_orders);
  std::vector<RegionDemand> demand;
  for (const auto& group : Figure2Grouping()) {
    RegionDemand d;
    for (const auto& object : group.objects) {
      for (const auto& f : footprints) {
        if (f.object != object) continue;
        d.pages += f.pages;
        d.reads += f.reads_per_txn;
        d.writes += f.writes_per_txn;
      }
    }
    demand.push_back(d);
  }
  return demand;
}

uint32_t CapacityMinimum(const RegionDemand& d, uint64_t usable_per_die) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>(std::ceil(1.10 * static_cast<double>(d.pages) /
                                         static_cast<double>(usable_per_die))));
}

double MaxLoadPerDie(const std::vector<RegionDemand>& demand,
                     const std::vector<uint32_t>& dies,
                     uint64_t usable_per_die) {
  double worst = 0;
  for (size_t i = 0; i < demand.size(); i++) {
    worst = std::max(worst, ModelledServiceDemand(demand[i], dies[i],
                                                  usable_per_die) /
                                dies[i]);
  }
  return worst;
}

std::vector<uint32_t> DiesOf(const PlacementConfig& c) {
  std::vector<uint32_t> dies;
  for (const auto& r : c.regions) dies.push_back(r.dies);
  return dies;
}

TEST(ServiceDemandTest, DiesSumToTotalAndMeetCapacityMinimums) {
  const TpccScale scale = Figure3Scale();
  for (const uint64_t new_orders : {uint64_t{27000}, kFigure3NewOrders}) {
    const auto demand = Figure2Demand(scale, new_orders);
    const PlacementConfig c =
        ApportionByServiceDemand(Figure2Grouping(), "t", demand, kFigure3Dies,
                                 kFigure3UsablePerDie);
    EXPECT_EQ(c.TotalDies(), kFigure3Dies);
    ASSERT_EQ(c.regions.size(), demand.size());
    for (size_t i = 0; i < demand.size(); i++) {
      EXPECT_GE(c.regions[i].dies,
                CapacityMinimum(demand[i], kFigure3UsablePerDie))
          << c.regions[i].region_name;
    }
  }
}

TEST(ServiceDemandTest, StaticDerivationUsesTheSameRoutine) {
  const TpccScale scale = Figure3Scale();
  const PlacementConfig derived =
      DeriveFigure2Placement(scale, 4096, kFigure3NewOrders, kFigure3Dies,
                             kFigure3UsablePerDie);
  const PlacementConfig direct = ApportionByServiceDemand(
      Figure2Grouping(), "t", Figure2Demand(scale, kFigure3NewOrders),
      kFigure3Dies, kFigure3UsablePerDie);
  EXPECT_EQ(DiesOf(derived), DiesOf(direct));
}

TEST(ServiceDemandTest, MoreReadsNeverCostARegionDies) {
  const TpccScale scale = Figure3Scale();
  const auto base = Figure2Demand(scale, kFigure3NewOrders);
  for (size_t g = 0; g < base.size(); g++) {
    uint32_t previous = 0;
    for (const double factor : {1.0, 1.25, 1.5, 2.0, 3.0, 5.0}) {
      auto demand = base;
      demand[g].reads = base[g].reads * factor + (factor - 1.0);
      const PlacementConfig c =
          ApportionByServiceDemand(Figure2Grouping(), "t", demand,
                                   kFigure3Dies, kFigure3UsablePerDie);
      EXPECT_GE(c.regions[g].dies, previous)
          << c.regions[g].region_name << " at reads x" << factor;
      previous = c.regions[g].dies;
    }
  }
}

TEST(ServiceDemandTest, NoSingleDieMoveLowersTheModelledMaximum) {
  const TpccScale scale = Figure3Scale();
  struct Case {
    uint64_t new_orders;
    uint32_t dies;
    uint64_t usable;
  };
  for (const Case& k : {Case{kFigure3NewOrders, 64, kFigure3UsablePerDie},
                        Case{27000, 64, UsablePagesPerDie(20, 64)},
                        Case{kFigure3NewOrders, 96, kFigure3UsablePerDie},
                        Case{kFigure3NewOrders, 48, UsablePagesPerDie(40, 64)}}) {
    const auto demand = Figure2Demand(scale, k.new_orders);
    const std::vector<uint32_t> dies = DiesOf(ApportionByServiceDemand(
        Figure2Grouping(), "t", demand, k.dies, k.usable));
    const double best = MaxLoadPerDie(demand, dies, k.usable);
    for (size_t from = 0; from < dies.size(); from++) {
      if (dies[from] - 1 < CapacityMinimum(demand[from], k.usable)) continue;
      for (size_t to = 0; to < dies.size(); to++) {
        if (to == from) continue;
        auto moved = dies;
        moved[from]--;
        moved[to]++;
        EXPECT_GE(MaxLoadPerDie(demand, moved, k.usable), best)
            << "moving a die from group " << from << " to " << to
            << " at " << k.dies << " dies";
      }
    }
  }
}

TEST(ServiceDemandTest, SpareDiesGoToReadHotRegionsOnFigure3Device) {
  const TpccScale scale = Figure3Scale();
  const auto demand = Figure2Demand(scale, kFigure3NewOrders);
  const PlacementConfig c =
      DeriveFigure2Placement(scale, 4096, kFigure3NewOrders, kFigure3Dies,
                             kFigure3UsablePerDie);
  ASSERT_EQ(c.regions[2].region_name, "rg_cust");
  EXPECT_GT(c.regions[2].dies,
            CapacityMinimum(demand[2], kFigure3UsablePerDie));
  // rg_order is large but I/O-light: its dies are idle even at the
  // capacity minimum, so it gets no spare.
  ASSERT_EQ(c.regions[1].region_name, "rg_order");
  EXPECT_EQ(c.regions[1].dies,
            CapacityMinimum(demand[1], kFigure3UsablePerDie));
}

TEST(ServiceDemandTest, GcCostFallsWithMoreDies) {
  // Same traffic on more dies: lower utilization, cheaper GC per write.
  RegionDemand d{10000, 1.0, 1.0};
  const uint64_t usable = UsablePagesPerDie(26, 64);
  double previous = ModelledServiceDemand(d, 7, usable);
  for (uint32_t dies = 8; dies <= 32; dies++) {
    const double now = ModelledServiceDemand(d, dies, usable);
    EXPECT_LT(now, previous) << dies;
    previous = now;
  }
  // Reads alone cost read + transfer (90 us) whatever the die count.
  EXPECT_DOUBLE_EQ(ModelledServiceDemand({10000, 2.0, 0.0}, 9, usable), 180.0);
}

TEST(PlacementTest, SuggestBlocksPerDieHitsUtilizationTarget) {
  TpccScale scale = TpccScale::Small();
  const uint32_t blocks =
      SuggestBlocksPerDie(scale, 2048, 500, 16, 16, 0.80, 8);
  EXPECT_GE(blocks, 8u);
  // Capacity implied by the suggestion must exceed the estimated footprint.
  auto footprints = EstimateFootprints(scale, 2048, 500);
  uint64_t total = 0;
  for (const auto& f : footprints) total += f.pages;
  EXPECT_GE(16ull * blocks * 16, total);
}

// --- Loader ----------------------------------------------------------

class TpccLoadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto db = TpccDb::CreateAndLoad(SmallTpcc());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = db->release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static TpccDb* db_;
};
TpccDb* TpccLoadTest::db_ = nullptr;

TEST_F(TpccLoadTest, PopulationCountsMatchScale) {
  const TpccScale& s = db_->scale();
  const uint64_t districts = s.warehouses * s.districts_per_warehouse;
  EXPECT_EQ(db_->warehouse->record_count(), s.warehouses);
  EXPECT_EQ(db_->district->record_count(), districts);
  EXPECT_EQ(db_->customer->record_count(),
            districts * s.customers_per_district);
  EXPECT_EQ(db_->item->record_count(), s.items);
  EXPECT_EQ(db_->stock->record_count(),
            static_cast<uint64_t>(s.warehouses) * s.items);
  EXPECT_EQ(db_->order->record_count(),
            districts * s.initial_orders_per_district);
  EXPECT_EQ(db_->new_order->record_count(),
            districts * s.initial_new_orders_per_district);
  EXPECT_EQ(db_->history->record_count(),
            districts * s.customers_per_district);
  EXPECT_GT(db_->order_line->record_count(),
            districts * s.initial_orders_per_district * 5);
}

TEST_F(TpccLoadTest, IndexesMatchTables) {
  EXPECT_EQ(db_->w_idx->entry_count(), db_->warehouse->record_count());
  EXPECT_EQ(db_->d_idx->entry_count(), db_->district->record_count());
  EXPECT_EQ(db_->c_idx->entry_count(), db_->customer->record_count());
  EXPECT_EQ(db_->c_name_idx->entry_count(), db_->customer->record_count());
  EXPECT_EQ(db_->i_idx->entry_count(), db_->item->record_count());
  EXPECT_EQ(db_->s_idx->entry_count(), db_->stock->record_count());
  EXPECT_EQ(db_->no_idx->entry_count(), db_->new_order->record_count());
  EXPECT_EQ(db_->o_idx->entry_count(), db_->order->record_count());
  EXPECT_EQ(db_->o_cust_idx->entry_count(), db_->order->record_count());
  EXPECT_EQ(db_->ol_idx->entry_count(), db_->order_line->record_count());
}

TEST_F(TpccLoadTest, DistrictNextOidConsistent) {
  txn::TxnContext ctx;
  ctx.now = db_->load_end_time();
  const TpccScale& s = db_->scale();
  for (uint32_t w = 1; w <= s.warehouses; w++) {
    for (uint32_t d = 1; d <= s.districts_per_warehouse; d++) {
      auto rid = db_->d_idx->Lookup(&ctx, DistrictKey(w, d));
      ASSERT_TRUE(rid.ok());
      auto bytes = db_->district->Read(&ctx, storage::RecordId::Unpack(*rid));
      ASSERT_TRUE(bytes.ok());
      DistrictRow row;
      ASSERT_TRUE(RowFromBytes(*bytes, &row).ok());
      EXPECT_EQ(row.next_o_id,
                static_cast<int32_t>(s.initial_orders_per_district) + 1);
    }
  }
}

TEST_F(TpccLoadTest, StatsWereResetAfterLoad) {
  // Use a fresh instance: the suite-shared db_ has served reads for earlier
  // tests, which rightly count as host traffic.
  auto fresh = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ((*fresh)->database()->device()->stats().host_reads(), 0u);
  EXPECT_EQ((*fresh)->database()->device()->stats().host_writes(), 0u);
}

// --- Transactions ----------------------------------------------------

class TpccTxnTest : public ::testing::Test {
 protected:
  TpccTxnTest() {
    auto db = TpccDb::CreateAndLoad(SmallTpcc());
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    txns_ = std::make_unique<TpccTransactions>(db_.get(), db_->rng(),
                                               db_->nurand());
    ctx_.now = db_->load_end_time();
  }

  DistrictRow ReadDistrict(int32_t w, int32_t d) {
    auto rid = db_->d_idx->Lookup(&ctx_, DistrictKey(w, d));
    EXPECT_TRUE(rid.ok());
    auto bytes = db_->district->Read(&ctx_, storage::RecordId::Unpack(*rid));
    EXPECT_TRUE(bytes.ok());
    DistrictRow row;
    EXPECT_TRUE(RowFromBytes(*bytes, &row).ok());
    return row;
  }

  std::unique_ptr<TpccDb> db_;
  std::unique_ptr<TpccTransactions> txns_;
  txn::TxnContext ctx_;
};

TEST_F(TpccTxnTest, NewOrderInsertsRowsAndBumpsNextOid) {
  const uint64_t orders_before = db_->order->record_count();
  const uint64_t lines_before = db_->order_line->record_count();

  int committed_runs = 0;
  for (int i = 0; i < 20; i++) {
    bool committed = false;
    Status s = txns_->NewOrder(&ctx_, 1, &committed);
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (committed) committed_runs++;
  }
  ASSERT_GT(committed_runs, 0);
  EXPECT_EQ(db_->order->record_count(),
            orders_before + static_cast<uint64_t>(committed_runs));
  EXPECT_GT(db_->order_line->record_count(),
            lines_before + 4ull * committed_runs);
  EXPECT_EQ(db_->o_idx->entry_count(), db_->order->record_count());
  EXPECT_EQ(db_->no_idx->entry_count(), db_->new_order->record_count());
}

TEST_F(TpccTxnTest, PaymentUpdatesBalancesAndWritesHistory) {
  const uint64_t hist_before = db_->history->record_count();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(txns_->Payment(&ctx_, 1).ok());
  }
  EXPECT_EQ(db_->history->record_count(), hist_before + 10);
}

TEST_F(TpccTxnTest, OrderStatusIsReadOnly) {
  const uint64_t writes_before =
      db_->database()->device()->stats().host_writes();
  const uint64_t orders_before = db_->order->record_count();
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(txns_->OrderStatus(&ctx_, 1).ok());
  }
  EXPECT_EQ(db_->order->record_count(), orders_before);
  // Background flushers may write, but no logical rows changed; heap
  // record counts above are the real check. Device writes can only come
  // from flusher activity on previously dirty load pages.
  (void)writes_before;
}

TEST_F(TpccTxnTest, DeliveryConsumesNewOrders) {
  const uint64_t pending_before = db_->new_order->record_count();
  ASSERT_GT(pending_before, 0u);
  ASSERT_TRUE(txns_->Delivery(&ctx_, 1).ok());
  // One order per district consumed (districts with pending orders).
  const uint64_t consumed = pending_before - db_->new_order->record_count();
  EXPECT_GE(consumed, 1u);
  EXPECT_LE(consumed, db_->scale().districts_per_warehouse);
  EXPECT_EQ(db_->no_idx->entry_count(), db_->new_order->record_count());
}

TEST_F(TpccTxnTest, DeliveryDrainsEventually) {
  // Repeated deliveries with no new orders must drain the queue to zero.
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(txns_->Delivery(&ctx_, 1).ok());
  }
  EXPECT_EQ(db_->new_order->record_count(), 0u);
  // And further deliveries are harmless no-ops.
  ASSERT_TRUE(txns_->Delivery(&ctx_, 1).ok());
}

TEST_F(TpccTxnTest, NewOrderIndexPagesDoNotGrowWithDeliveredOrders) {
  // Steady state: two NewOrders per Delivery keep the queue's length while
  // Delivery deletes the oldest entry of each district. Freed leaves go back
  // to the tablespace, so the index holds what is queued, not what passed.
  auto new_orders = [&](int n) {
    bool committed = false;
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(txns_->NewOrder(&ctx_, 1, &committed).ok());
    }
  };
  auto steady_rounds = [&](int rounds) {
    for (int r = 0; r < rounds; r++) {
      ASSERT_NO_FATAL_FAILURE(new_orders(2));
      ASSERT_TRUE(txns_->Delivery(&ctx_, 1).ok());
    }
  };
  // A queue several leaves long first, so Delivery's deletes empty leaves.
  ASSERT_NO_FATAL_FAILURE(new_orders(200));
  ASSERT_GE(db_->no_idx->height(), 2u);
  ASSERT_NO_FATAL_FAILURE(steady_rounds(50));
  const uint64_t pages = db_->no_idx->page_count();
  const uint64_t orders = db_->order->record_count();
  const uint64_t pending = db_->new_order->record_count();
  ASSERT_NO_FATAL_FAILURE(steady_rounds(300));
  // Some six hundred more orders went through the queue...
  const uint64_t placed = db_->order->record_count() - orders;
  const uint64_t delivered =
      placed + pending - db_->new_order->record_count();
  EXPECT_GE(delivered, 540u);
  // ...and the index did not keep a page for them.
  EXPECT_LE(db_->no_idx->page_count(), pages + 1);
  EXPECT_EQ(db_->no_idx->entry_count(), db_->new_order->record_count());
  Status v = db_->no_idx->Validate(&ctx_);
  EXPECT_TRUE(v.ok()) << v.ToString();
}

TEST_F(TpccTxnTest, StockLevelRuns) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(txns_->StockLevel(&ctx_, 1, 1).ok());
  }
}

TEST_F(TpccTxnTest, NewOrderAdvancesDistrictSequence) {
  const DistrictRow before = ReadDistrict(1, 1);
  int committed_on_d1 = 0;
  for (int i = 0; i < 30; i++) {
    bool committed = false;
    ASSERT_TRUE(txns_->NewOrder(&ctx_, 1, &committed).ok());
    (void)committed;
  }
  const DistrictRow after = ReadDistrict(1, 1);
  committed_on_d1 = after.next_o_id - before.next_o_id;
  EXPECT_GE(committed_on_d1, 0);
  // Orders with ids [before.next_o_id, after.next_o_id) must exist.
  for (int32_t o = before.next_o_id; o < after.next_o_id; o++) {
    EXPECT_TRUE(db_->o_idx->Lookup(&ctx_, OrderKey(1, 1, o)).ok()) << o;
  }
}

// --- Driver ----------------------------------------------------------

// The loader inserts every index in key order and NewOrder appends within
// each district, so the key-ordered indexes keep full leaves: each holds at
// least 90% of a full leaf's entries per page (inner nodes included), on one
// full-scale warehouse.
TEST(TpccIndexFillTest, KeyOrderedIndexesKeepLeavesFull) {
  TpccDbOptions options;  // default device: 64 dies, 4 KiB pages
  options.scale.warehouses = 1;
  options.placement =
      TraditionalPlacement(options.db.geometry.total_dies());
  auto db = TpccDb::CreateAndLoad(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TpccTransactions txns(db->get(), (*db)->rng(), (*db)->nurand());
  txn::TxnContext ctx;
  ctx.now = (*db)->load_end_time();
  for (int i = 0; i < 300; i++) {
    bool committed = false;
    ASSERT_TRUE(txns.NewOrder(&ctx, 1, &committed).ok());
  }

  const double full_leaf = (options.db.geometry.page_size - 32) / 24;
  for (index::BTree* idx :
       {(*db)->i_idx, (*db)->s_idx, (*db)->c_idx, (*db)->ol_idx}) {
    Status v = idx->Validate(&ctx);
    ASSERT_TRUE(v.ok()) << idx->name() << ": " << v.ToString();
    const double per_page = static_cast<double>(idx->entry_count()) /
                            static_cast<double>(idx->page_count());
    EXPECT_GE(per_page, 0.9 * full_leaf) << idx->name();
  }
}

TEST(PlacementTest, FootprintEstimatesAreMemoized) {
  TpccScale scale;
  scale.warehouses = 13;  // parameters no other test uses: guaranteed cold
  const uint64_t before = FootprintEstimationCount();
  const uint32_t a = SuggestBlocksPerDie(scale, 4096, 90000, 64, 64);
  EXPECT_EQ(FootprintEstimationCount(), before + 1);
  // Same parameters again — SuggestBlocksPerDie, EstimateFootprints and
  // DeriveGroupedPlacement all hit the cache with identical results.
  const uint32_t b = SuggestBlocksPerDie(scale, 4096, 90000, 64, 64);
  EXPECT_EQ(a, b);
  const auto direct = EstimateFootprints(scale, 4096, 90000);
  (void)DeriveFigure2Placement(scale, 4096, 90000, 64,
                               UsablePagesPerDie(256, 64));
  EXPECT_EQ(FootprintEstimationCount(), before + 1);
  // A different configuration is a genuine miss.
  scale.items += 1;
  (void)EstimateFootprints(scale, 4096, 90000);
  EXPECT_EQ(FootprintEstimationCount(), before + 2);
  EXPECT_EQ(direct.size(), AllTpccObjects().size());
}

/// Every row's logical fields, one sorted line per row and table. The
/// timestamps a run stamps (order entry, line delivery, history date)
/// depend on simulated time and are left out; whether a line was delivered
/// is kept.
std::vector<std::string> LogicalContents(TpccDb* db) {
  std::vector<std::string> out;
  txn::TxnContext ctx;
  auto scan = [&](storage::HeapFile* heap, auto row,
                  auto describe) {
    Status s = heap->Scan(&ctx, [&](storage::RecordId, Slice bytes) {
      decltype(row) r;
      EXPECT_EQ(bytes.size(), sizeof(r));
      memcpy(&r, bytes.data(), sizeof(r));
      out.push_back(describe(r));
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  };
  auto fmt = [](const char* f, auto... args) {
    char buf[640];
    snprintf(buf, sizeof(buf), f, args...);
    return std::string(buf);
  };
  scan(db->warehouse, WarehouseRow{}, [&](const WarehouseRow& r) {
    return fmt("W %d ytd=%a", r.w_id, r.ytd);
  });
  scan(db->district, DistrictRow{}, [&](const DistrictRow& r) {
    return fmt("D %d %d ytd=%a next=%d", r.w_id, r.d_id, r.ytd, r.next_o_id);
  });
  scan(db->customer, CustomerRow{}, [&](const CustomerRow& r) {
    return fmt("C %d %d %d bal=%a ytd=%a pay=%d del=%d data=%.500s", r.w_id,
               r.d_id, r.c_id, r.balance, r.ytd_payment, r.payment_cnt,
               r.delivery_cnt, r.data);
  });
  scan(db->history, HistoryRow{}, [&](const HistoryRow& r) {
    return fmt("H %d %d %d %d %d amt=%a %.24s", r.c_w_id, r.c_d_id, r.c_id,
               r.w_id, r.d_id, r.amount, r.data);
  });
  scan(db->new_order, NewOrderRow{}, [&](const NewOrderRow& r) {
    return fmt("N %d %d %d", r.w_id, r.d_id, r.o_id);
  });
  scan(db->order, OrderRow{}, [&](const OrderRow& r) {
    return fmt("O %d %d %d c=%d carrier=%d lines=%d local=%d", r.w_id, r.d_id,
               r.o_id, r.c_id, r.carrier_id, r.ol_cnt, r.all_local);
  });
  scan(db->order_line, OrderLineRow{}, [&](const OrderLineRow& r) {
    return fmt("L %d %d %d %d i=%d sw=%d q=%d amt=%a delivered=%d %.24s",
               r.w_id, r.d_id, r.o_id, r.number, r.i_id, r.supply_w_id,
               r.quantity, r.amount, r.delivery_d != 0 ? 1 : 0, r.dist_info);
  });
  scan(db->stock, StockRow{}, [&](const StockRow& r) {
    return fmt("S %d %d q=%d ytd=%d orders=%d remote=%d", r.w_id, r.i_id,
               r.quantity, r.ytd, r.order_cnt, r.remote_cnt);
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TpccDriverTest, BatchedIoMatchesSerialLogicallyOnSingleTerminal) {
  // One terminal makes the transaction order (and thus every rng draw)
  // independent of I/O timing: batched and serial runs must then commit the
  // same transactions and leave logically identical databases — same row
  // counts, same index entry counts, same row contents (balances, delivery
  // and payment counts, carriers, stock levels) — while the batched run
  // finishes no later in simulated time.
  std::vector<std::string> contents[2];
  auto RunMode = [&](bool batched, uint64_t* row_counts, SimTime* elapsed) {
    auto db = TpccDb::CreateAndLoad(SmallTpcc());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    DriverOptions options;
    options.terminals = 1;
    options.max_transactions = 250;
    options.batched_io = batched;
    TpccDriver driver(db->get(), options);
    auto report = driver.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    storage::HeapFile* tables[] = {
        (*db)->warehouse, (*db)->district, (*db)->customer,
        (*db)->history,   (*db)->new_order, (*db)->order,
        (*db)->order_line, (*db)->item,     (*db)->stock};
    size_t i = 0;
    for (auto* t : tables) row_counts[i++] = t->record_count();
    index::BTree* indexes[] = {(*db)->no_idx, (*db)->o_idx, (*db)->ol_idx,
                               (*db)->o_cust_idx};
    for (auto* idx : indexes) row_counts[i++] = idx->entry_count();
    row_counts[i++] = report->transactions;
    row_counts[i++] = report->rollbacks;
    *elapsed = report->elapsed_us;
    for (auto* rg : (*db)->database()->regions()->regions()) {
      ASSERT_TRUE(rg->VerifyIntegrity().ok());
    }
    contents[batched ? 1 : 0] = LogicalContents(db->get());
  };
  uint64_t serial_counts[16] = {0};
  uint64_t batched_counts[16] = {0};
  SimTime serial_elapsed = 0;
  SimTime batched_elapsed = 0;
  RunMode(false, serial_counts, &serial_elapsed);
  RunMode(true, batched_counts, &batched_elapsed);
  for (int i = 0; i < 15; i++) {
    EXPECT_EQ(serial_counts[i], batched_counts[i]) << "count " << i;
  }
  ASSERT_EQ(contents[0].size(), contents[1].size());
  ASSERT_FALSE(contents[0].empty());
  for (size_t i = 0; i < contents[0].size(); i++) {
    ASSERT_EQ(contents[0][i], contents[1][i]) << "row " << i;
  }
  EXPECT_LE(batched_elapsed, serial_elapsed);
}

// --- Read waves ------------------------------------------------------

/// Flush every dirty page, then drop every page from the pool, so the next
/// access of any page is a flash read. (The traditional placement keeps
/// every table and index in one tablespace; DiscardTablespace would
/// unregister it.)
void MakePoolCold(TpccDb* db, txn::TxnContext* ctx) {
  buffer::BufferPool* pool = db->database()->buffer();
  ASSERT_TRUE(pool->FlushAll(ctx).ok());
  std::set<storage::Tablespace*> spaces;
  for (storage::HeapFile* heap :
       {db->warehouse, db->district, db->customer, db->history,
        db->new_order, db->order, db->order_line, db->item, db->stock}) {
    spaces.insert(heap->tablespace());
  }
  for (storage::Tablespace* ts : spaces) {
    for (uint64_t p = 0; p < ts->page_count(); p++) {
      pool->Discard({ts->tablespace_id(), p});
    }
  }
}

/// Times one transaction blocks on reads from a cold pool, averaged over
/// ten draws on the small database with the spec's ten districts.
double ColdReadWaits(
    bool batched,
    const std::function<Status(TpccTransactions*, txn::TxnContext*)>& run) {
  constexpr int kDraws = 10;
  TpccDbOptions options = SmallTpcc();
  options.scale.districts_per_warehouse = 10;
  auto db = TpccDb::CreateAndLoad(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return 0;
  TpccTransactions txns(db->get(), (*db)->rng(), (*db)->nurand());
  txns.SetBatchedIo(batched);
  txn::TxnContext ctx;
  ctx.now = (*db)->load_end_time();
  uint64_t waits = 0;
  for (int i = 0; i < kDraws; i++) {
    MakePoolCold(db->get(), &ctx);
    ctx.Begin(ctx.now);
    Status s = run(&txns, &ctx);
    EXPECT_TRUE(s.ok()) << s.ToString();
    waits += ctx.read_waits;
  }
  return static_cast<double>(waits) / kDraws;
}

TEST(TpccReadWaveTest, ColdDeliveryReadsInWavesAcrossDistricts) {
  auto delivery = [](TpccTransactions* t, txn::TxnContext* ctx) {
    return t->Delivery(ctx, 1);
  };
  const double batched = ColdReadWaits(true, delivery);
  const double serial = ColdReadWaits(false, delivery);
  // Five waves across the ten districts plus the serial inner-node and
  // insert-free leftovers, against one wait per page read serially.
  EXPECT_LE(batched, 12.0);
  EXPECT_LE(5.0 * batched, serial);
}

TEST(TpccReadWaveTest, ColdNewOrderReadsInTwoWaves) {
  const double batched =
      ColdReadWaits(true, [](TpccTransactions* t, txn::TxnContext* ctx) {
        bool committed = false;
        return t->NewOrder(ctx, 1, &committed);
      });
  // Two waves for the probes and rows; the rest are the inserts' own misses
  // and the inner nodes each index descent reads first.
  EXPECT_LE(batched, 20.0);
}

TEST(TpccDriverTest, RunsAndReports) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DriverOptions options;
  options.terminals = 4;
  options.warmup_transactions = 50;
  options.max_transactions = 401;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The run is made of whole per-terminal quotas, warmup included: every
  // terminal runs ceil((warmup + max) / terminals) transactions.
  const uint64_t per_terminal =
      (options.warmup_transactions + options.max_transactions +
       options.terminals - 1) /
      options.terminals;
  EXPECT_EQ(report->transactions + report->rollbacks,
            per_terminal * options.terminals - options.warmup_transactions);
  EXPECT_GT(report->transactions, 300u);
  EXPECT_GT(report->tps, 0.0);
  EXPECT_GT(report->elapsed_us, 0u);
  EXPECT_GT(report->host_read_ios, 0u);
  // The standard mix: NewOrder is the plurality.
  EXPECT_GT(report->response_us[0].count(), report->response_us[2].count());
  EXPECT_FALSE(report->ToString().empty());
}

TEST(TpccDriverTest, FailedRunLeavesNoShardPlacementHint) {
  TpccDbOptions o = SmallTpcc();
  o.db.sharding.shard_count = 2;
  o.db.sharding.placement = shard::ShardPlacement::kByKey;
  auto db = TpccDb::CreateAndLoad(o);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // Every flash read fails and the driver does not retry, so the run stops
  // at the first buffer miss, inside a transaction that pinned its warehouse.
  flash::FaultOptions faults;
  faults.read_transient_rate = 1.0;
  (*db)->database()->ForEachDevice(
      [&](flash::FlashDevice* dev) { dev->SetFaults(faults); });
  DriverOptions options;
  options.terminals = 2;
  options.max_transactions = 400;
  options.txn_retry_limit = 0;
  TpccDriver driver(db->get(), options);
  ASSERT_FALSE(driver.Run().ok());

  // A later allocation on this thread is placed by its own key again, not
  // pinned to the failed transaction's warehouse.
  shard::ShardedSpace* space = (*db)->database()->shards()->space("rg_all");
  ASSERT_NE(space, nullptr);
  for (uint64_t key : {0u, 1u}) {
    auto extent = space->AllocateExtentHinted(8, key);
    ASSERT_TRUE(extent.ok()) << extent.status().ToString();
    EXPECT_EQ(shard::ShardedSpace::ShardOf(*extent), key);
  }
}

TEST(TpccDriverTest, TimeLimitStopsRun) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok());
  DriverOptions options;
  options.terminals = 2;
  options.max_transactions = 1000000;
  options.max_sim_time_us = 2 * 1000 * 1000;  // 2 simulated seconds
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->elapsed_us, 4u * 1000 * 1000);  // bounded overshoot
  EXPECT_GT(report->transactions, 0u);
}

TEST(TpccDriverTest, MultiRegionPlacementRuns) {
  auto db = TpccDb::CreateAndLoad(
      SmallTpcc(db::Backend::kNoFtl, /*multi_region=*/true));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->get()->database()->regions()->region_count(), 6u);
  DriverOptions options;
  options.terminals = 4;
  options.max_transactions = 300;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->transactions, 200u);
}

TEST(TpccDriverTest, FtlBackendRuns) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc(db::Backend::kFtl));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DriverOptions options;
  options.terminals = 2;
  options.max_transactions = 200;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->transactions, 100u);
}


TEST(TpccDriverTest, WarmupIsExcludedFromMeasurement) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok());
  DriverOptions options;
  options.terminals = 2;
  options.max_transactions = 200;
  options.warmup_transactions = 300;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());
  // Only the measured phase is reported.
  EXPECT_EQ(report->transactions + report->rollbacks, 200u);
  uint64_t recorded = 0;
  for (int t = 0; t < kNumTxnTypes; t++) {
    recorded += report->response_us[t].count();
  }
  EXPECT_EQ(recorded, 200u);
}

TEST(TpccDriverTest, MixFollowsTheStandardDeck) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok());
  DriverOptions options;
  options.terminals = 4;
  options.max_transactions = 2000;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());
  const double total = 2000.0;
  const double new_order =
      static_cast<double>(report->response_us[0].count()) / total;
  const double payment =
      static_cast<double>(report->response_us[1].count()) / total;
  const double stock_level =
      static_cast<double>(report->response_us[4].count()) / total;
  EXPECT_NEAR(new_order, 0.45, 0.03);
  EXPECT_NEAR(payment, 0.43, 0.03);
  EXPECT_NEAR(stock_level, 0.04, 0.02);
}

TEST(TpccDriverTest, GlobalWearLevelingDuringRun) {
  // Multi-region run with periodic RebalanceWear calls: must complete and
  // keep every region's translation intact even if dies get swapped.
  auto db = TpccDb::CreateAndLoad(
      SmallTpcc(db::Backend::kNoFtl, /*multi_region=*/true));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DriverOptions options;
  options.terminals = 4;
  options.max_transactions = 800;
  options.global_wl_interval = 100;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->transactions, 600u);
  for (auto* rg : db->get()->database()->regions()->regions()) {
    EXPECT_TRUE(rg->mapper().VerifyIntegrity().ok()) << rg->name();
  }
}

TEST(TpccDriverTest, ReportStringContainsFigure3Rows) {
  auto db = TpccDb::CreateAndLoad(SmallTpcc());
  ASSERT_TRUE(db.ok());
  DriverOptions options;
  options.terminals = 2;
  options.max_transactions = 150;
  TpccDriver driver(db->get(), options);
  auto report = driver.Run();
  ASSERT_TRUE(report.ok());
  report->label = "unit";
  const std::string text = report->ToString();
  for (const char* needle :
       {"TPS", "READ 4KB", "WRITE 4KB", "NewOrder TRX", "Payment TRX",
        "StockLevel TRX", "GC COPYBACKs", "GC ERASEs"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace noftl::tpcc
