// The five TPC-C transactions (clause 2), implemented against the storage
// engine: index probes via B+-trees, row access via heap files, all page
// I/O through the buffer pool. Delivery runs inline (not deferred), as in
// the Shore-MT TPC-C kit the paper used.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "tpcc/tpcc_db.h"
#include "txn/txn.h"

namespace noftl::tpcc {

enum class TxnType : uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};
inline constexpr int kNumTxnTypes = 5;

const char* TxnTypeName(TxnType type);

class TpccTransactions {
 public:
  /// `rng`/`nurand` are shared with the loader so the NURand C constants
  /// match (clause 2.1.6.1).
  TpccTransactions(TpccDb* db, Rng* rng, NURand* nurand);

  /// Batched I/O (default on): a transaction's independent reads go out
  /// as read waves, one batched submission per dependency level, reaped by
  /// the first access that needs one of them. NewOrder reads in two waves
  /// (the customer, item, stock and order-by-customer index leaves, then
  /// the customer, item and stock pages); Delivery in five across all its
  /// districts (oldest-new-order leaves; new-order pages with the order
  /// and order-line leaves; order pages; order-line pages with the
  /// customer leaves; customer pages). Multi-row reads elsewhere resolve
  /// their record ids first and fetch the pages as one wave (OrderStatus's
  /// order lines, StockLevel's order-line rows, stock leaves and stock
  /// rows, the customers matching a last name), and index range reads
  /// prefetch their leaves. Off = the serial one-page-at-a-time baseline
  /// (A/B measurements; identical logical behaviour, CPU charges and rng
  /// consumption either way).
  void SetBatchedIo(bool on);

  /// Concurrency control for the threaded driver: one mutex per warehouse
  /// (index 1..W used). Every transaction determines the warehouses it will
  /// touch from its leading rng draws — before any data access — and holds
  /// their mutexes, acquired in ascending order, for its whole body. These
  /// locks rank kWarehouse — near the top of the hierarchy, above every
  /// table latch; the rank allows same-rank holds because a transaction
  /// takes several of them (the ascending order keeps the set deadlock-free;
  /// a deque because the ranked Mutex has no default constructor and never
  /// moves). nullptr (default) = single-threaded driver, no locking,
  /// behaviour byte-identical to the unlocked code.
  void SetWarehouseLocks(std::deque<Mutex>* locks) { wlocks_ = locks; }

  /// Clause 2.4. *committed=false for the 1% of orders with an unused item
  /// number (clause 2.4.1.4 rollback); those perform their reads first and
  /// write nothing.
  Status NewOrder(txn::TxnContext* ctx, int32_t w, bool* committed);

  /// Clause 2.5 (60% by last name, 40% by id; 15% remote customer).
  Status Payment(txn::TxnContext* ctx, int32_t w);

  /// Clause 2.6.
  Status OrderStatus(txn::TxnContext* ctx, int32_t w);

  /// Clause 2.7, inline; delivers at most one order per district.
  Status Delivery(txn::TxnContext* ctx, int32_t w);

  /// Clause 2.8; `d` is the terminal's fixed district.
  Status StockLevel(txn::TxnContext* ctx, int32_t w, int32_t d);

 private:
  template <typename T>
  Status ReadRow(txn::TxnContext* ctx, storage::HeapFile* heap,
                 storage::RecordId rid, T* out);
  template <typename T>
  Status WriteRow(txn::TxnContext* ctx, storage::HeapFile* heap,
                  storage::RecordId rid, const T& row);

  /// Customer selected by last name: all matches, sorted by first name,
  /// middle one (clause 2.5.2.2).
  Status CustomerByName(txn::TxnContext* ctx, int32_t w, int32_t d,
                        const std::string& last, storage::RecordId* rid,
                        CustomerRow* row);
  Status CustomerById(txn::TxnContext* ctx, int32_t w, int32_t d, int32_t c,
                      storage::RecordId* rid, CustomerRow* row);

  /// One district's delivery: its oldest undelivered order and, once
  /// resolved, the records Delivery updates.
  struct DeliveryTarget {
    int32_t d = 0;
    Key128 no_key{};
    storage::RecordId nrid;
    int32_t o_id = 0;
    storage::RecordId orid;
    OrderRow orow{};
    std::vector<storage::RecordId> lrids;  ///< line n at n - 1
    storage::RecordId crid;
  };
  /// Find district t->d's oldest undelivered order (*found = false: none).
  Status OldestNewOrder(txn::TxnContext* ctx, int32_t w, DeliveryTarget* t,
                        bool* found);
  /// Delivery's mutations for one found order: delete its NEW_ORDER entry,
  /// set the carrier, stamp the lines, credit the customer. Batched I/O
  /// hands in every id and the order row resolved; serially they are
  /// resolved here, each read as it is needed.
  Status DeliverOrder(txn::TxnContext* ctx, int32_t w, int32_t carrier,
                      DeliveryTarget* t);

  int32_t RandomDistrict() {
    return static_cast<int32_t>(
        rng_->Uniform(1, db_->scale().districts_per_warehouse));
  }

  TpccDb* db_;
  Rng* rng_;
  NURand* nurand_;
  txn::CpuCosts cpu_;
  bool batched_io_ = true;
  std::deque<Mutex>* wlocks_ = nullptr;  ///< per-warehouse, 1-indexed
};

}  // namespace noftl::tpcc
