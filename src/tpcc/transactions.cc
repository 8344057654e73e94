#include "tpcc/transactions.h"

#include <algorithm>
#include <mutex>
#include <set>
#include <vector>

namespace noftl::tpcc {

using storage::RecordId;

namespace {

/// Largest order (clause 2.4.1.3: 5..15 lines).
constexpr int32_t kMaxOrderLines = 15;

/// One read wave: the independent reads of one dependency level of a
/// transaction, submitted together before any of them is needed. Every
/// Submit joins the wave's fetch (BufferPool::SubmitFetch's ticket join),
/// so leaves and pages of several indexes and tables go out as one queued
/// fetch: the transaction keeps computing while they are in flight, the
/// first access of any of the wave's pages reaps the whole wave — one wait,
/// for the slowest die — and the accesses after it hit. The destructor reaps
/// a wave that was never touched (early-error returns included), so no claim
/// pins outlive the transaction.
class ReadWave {
 public:
  explicit ReadWave(txn::TxnContext* ctx) : ctx_(ctx) {}
  ReadWave(const ReadWave&) = delete;
  ReadWave& operator=(const ReadWave&) = delete;
  ~ReadWave() {
    for (size_t i = 0; i < tickets_.size(); i++) {
      (void)pools_[i]->WaitFetch(ctx_, tickets_[i]);
    }
  }

  /// The pages holding `rids`.
  Status Submit(storage::HeapFile* heap, const std::vector<RecordId>& rids) {
    buffer::FetchTicket ticket = Joinable(heap->pool());
    Status s = heap->SubmitPrefetch(ctx_, rids, &ticket);
    Track(heap->pool(), ticket);
    return s;
  }

  /// The leaves the point probes of `keys` will read.
  Status Submit(index::BTree* tree, const std::vector<Key128>& keys) {
    buffer::FetchTicket ticket = Joinable(tree->pool());
    Status s = tree->SubmitLeafFetch(ctx_, keys, &ticket);
    Track(tree->pool(), ticket);
    return s;
  }

  /// The leaves first-entry scans of the ranges [from[i], to[i]] will read.
  Status SubmitScanStarts(index::BTree* tree, const std::vector<Key128>& from,
                          const std::vector<Key128>& to) {
    buffer::FetchTicket ticket = Joinable(tree->pool());
    Status s = tree->SubmitScanStartFetch(ctx_, from, to, &ticket);
    Track(tree->pool(), ticket);
    return s;
  }

 private:
  buffer::FetchTicket Joinable(buffer::BufferPool* pool) const {
    return !pools_.empty() && pools_.back() == pool ? tickets_.back() : 0;
  }

  // A ticket differing from the joined one is a new fetch: the joined fetch
  // was reaped meanwhile (a concurrent toucher of one of its pages), and its
  // completion still waits for this owner's reap.
  void Track(buffer::BufferPool* pool, buffer::FetchTicket ticket) {
    if (ticket == 0 || ticket == Joinable(pool)) return;
    pools_.push_back(pool);
    tickets_.push_back(ticket);
  }

  txn::TxnContext* ctx_;
  std::vector<buffer::BufferPool*> pools_;
  std::vector<buffer::FetchTicket> tickets_;
};

/// Sorted multi-acquire of the per-warehouse mutexes one transaction
/// touches, held for the transaction's whole body. Acquiring in ascending
/// warehouse order makes the set deadlock-free regardless of which remote
/// warehouses the rng picked. No-op when the driver runs single-threaded
/// (locks == nullptr).
class ScopedWarehouseLocks {
 public:
  // Analysis-exempt: the set of capabilities is data-dependent (whichever
  // warehouses the rng picked), which per-function static analysis cannot
  // express. The runtime validator still checks every acquisition — the
  // kWarehouse rank allows same-rank holds, and the ascending sort keeps
  // the multi-acquire deadlock-free.
  ScopedWarehouseLocks(std::deque<Mutex>* locks,
                       std::vector<int32_t> warehouses)
      NO_THREAD_SAFETY_ANALYSIS : locks_(locks), ws_(std::move(warehouses)) {
    if (locks_ == nullptr) return;
    std::sort(ws_.begin(), ws_.end());
    ws_.erase(std::unique(ws_.begin(), ws_.end()), ws_.end());
    for (int32_t w : ws_) (*locks_)[static_cast<size_t>(w)].lock();
  }
  ScopedWarehouseLocks(const ScopedWarehouseLocks&) = delete;
  ScopedWarehouseLocks& operator=(const ScopedWarehouseLocks&) = delete;
  ~ScopedWarehouseLocks() NO_THREAD_SAFETY_ANALYSIS {
    if (locks_ == nullptr) return;
    for (auto it = ws_.rbegin(); it != ws_.rend(); ++it) {
      (*locks_)[static_cast<size_t>(*it)].unlock();
    }
  }

 private:
  std::deque<Mutex>* locks_;
  std::vector<int32_t> ws_;
};

}  // namespace

const char* TxnTypeName(TxnType type) {
  switch (type) {
    case TxnType::kNewOrder: return "NewOrder";
    case TxnType::kPayment: return "Payment";
    case TxnType::kOrderStatus: return "OrderStatus";
    case TxnType::kDelivery: return "Delivery";
    case TxnType::kStockLevel: return "StockLevel";
  }
  return "?";
}

TpccTransactions::TpccTransactions(TpccDb* db, Rng* rng, NURand* nurand)
    : db_(db), rng_(rng), nurand_(nurand) {}

void TpccTransactions::SetBatchedIo(bool on) {
  batched_io_ = on;
  index::BTree* indexes[] = {db_->w_idx,      db_->d_idx,  db_->c_idx,
                             db_->c_name_idx, db_->i_idx,  db_->s_idx,
                             db_->no_idx,     db_->o_idx,  db_->o_cust_idx,
                             db_->ol_idx};
  for (index::BTree* idx : indexes) {
    if (idx != nullptr) idx->set_range_prefetch(on);
  }
}

template <typename T>
Status TpccTransactions::ReadRow(txn::TxnContext* ctx,
                                 storage::HeapFile* heap, RecordId rid,
                                 T* out) {
  auto bytes = heap->Read(ctx, rid);
  if (!bytes.ok()) return bytes.status();
  ctx->AddCpu(cpu_.per_row_us);
  return RowFromBytes(*bytes, out);
}

template <typename T>
Status TpccTransactions::WriteRow(txn::TxnContext* ctx,
                                  storage::HeapFile* heap, RecordId rid,
                                  const T& row) {
  ctx->AddCpu(cpu_.per_row_us);
  return heap->Update(ctx, rid, RowSlice(row));
}

Status TpccTransactions::CustomerById(txn::TxnContext* ctx, int32_t w,
                                      int32_t d, int32_t c, RecordId* rid,
                                      CustomerRow* row) {
  ctx->AddCpu(cpu_.per_index_probe_us);
  auto packed = db_->c_idx->Lookup(ctx, CustomerKey(w, d, c));
  if (!packed.ok()) return packed.status();
  *rid = RecordId::Unpack(*packed);
  return ReadRow(ctx, db_->customer, *rid, row);
}

Status TpccTransactions::CustomerByName(txn::TxnContext* ctx, int32_t w,
                                        int32_t d, const std::string& last,
                                        RecordId* rid, CustomerRow* row) {
  ctx->AddCpu(cpu_.per_index_probe_us);
  const Key128 base = CustomerNameKey(w, d, last, 0);
  std::vector<RecordId> rids;
  NOFTL_RETURN_IF_ERROR(db_->c_name_idx->ScanRange(
      ctx, {base.hi, 0}, {base.hi, ~0ull}, [&](Key128, uint64_t v) {
        rids.push_back(RecordId::Unpack(v));
        return true;
      }));
  if (rids.empty()) return Status::NotFound("no customer with last name");

  std::vector<CustomerRow> rows(rids.size());
  ReadWave wave(ctx);
  if (batched_io_) NOFTL_RETURN_IF_ERROR(wave.Submit(db_->customer, rids));
  for (size_t i = 0; i < rids.size(); i++) {
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->customer, rids[i], &rows[i]));
  }
  // Sort by first name; take the "middle" per clause 2.5.2.2 (position
  // ceil(n/2), 1-based).
  std::vector<size_t> order(rids.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return memcmp(rows[a].first, rows[b].first, sizeof(rows[a].first)) < 0;
  });
  const size_t mid = (order.size() + 1) / 2 - 1;
  *rid = rids[order[mid]];
  *row = rows[order[mid]];
  return Status::OK();
}

Status TpccTransactions::NewOrder(txn::TxnContext* ctx, int32_t w,
                                  bool* committed) {
  const TpccScale& scale = db_->scale();
  ctx->AddCpu(cpu_.per_txn_us);
  *committed = true;

  const int32_t d = RandomDistrict();
  const auto c = static_cast<int32_t>(
      nurand_->Next(1023, 1, scale.customers_per_district));
  const auto ol_cnt = static_cast<int32_t>(rng_->Uniform(5, kMaxOrderLines));
  const bool rollback = rng_->Uniform(1, 100) == 1;  // clause 2.4.1.4

  struct Line {
    int32_t i_id;
    int32_t supply_w;
    int32_t qty;
  };
  std::vector<Line> lines(ol_cnt);
  bool all_local = true;
  for (auto& line : lines) {
    line.i_id =
        static_cast<int32_t>(nurand_->Next(8191, 1, scale.items));
    line.supply_w = w;
    if (scale.warehouses > 1 && rng_->Uniform(1, 100) == 1) {
      do {
        line.supply_w =
            static_cast<int32_t>(rng_->Uniform(1, scale.warehouses));
      } while (line.supply_w == w);
      all_local = false;
    }
    line.qty = static_cast<int32_t>(rng_->Uniform(1, 10));
  }

  // Every touched warehouse is now known: home plus the supplying ones.
  std::vector<int32_t> lock_ws;
  if (wlocks_ != nullptr) {
    lock_ws.push_back(w);
    for (const auto& line : lines) lock_ws.push_back(line.supply_w);
  }
  ScopedWarehouseLocks wlock(wlocks_, std::move(lock_ws));

  // Warehouse tax.
  ctx->AddCpu(cpu_.per_index_probe_us);
  auto wrid = db_->w_idx->Lookup(ctx, WarehouseKey(w));
  if (!wrid.ok()) return wrid.status();
  WarehouseRow wrow;
  NOFTL_RETURN_IF_ERROR(
      ReadRow(ctx, db_->warehouse, RecordId::Unpack(*wrid), &wrow));

  // District: read and bump next_o_id.
  ctx->AddCpu(cpu_.per_index_probe_us);
  auto drid_packed = db_->d_idx->Lookup(ctx, DistrictKey(w, d));
  if (!drid_packed.ok()) return drid_packed.status();
  const RecordId drid = RecordId::Unpack(*drid_packed);
  DistrictRow drow;
  NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->district, drid, &drow));

  // Batched I/O resolves every independent read in two waves. Wave 1: the
  // index leaves whose keys are known now — the customer's C_IDX leaf, the
  // I_IDX and S_IDX leaves of every line and the O_CUST_IDX leaf the new
  // order's entry goes to. The probes then reap it and hit, and wave 2 reads
  // the CUSTOMER, ITEM and STOCK pages they name while the order's inserts
  // run; the first row read reaps it and every later one hits. The rollback
  // order (which writes nothing) leaves out the stock and O_CUST_IDX parts.
  // Serial: each probe and row read misses on its own, in program order.
  RecordId crid;
  CustomerRow crow;
  std::vector<RecordId> irids(ol_cnt);
  std::vector<RecordId> srids(ol_cnt);
  ReadWave rows(ctx);
  if (batched_io_) {
    ReadWave leaves(ctx);
    std::vector<Key128> ikeys;
    std::vector<Key128> skeys;
    for (const Line& line : lines) {
      ikeys.push_back(ItemKey(line.i_id));
      skeys.push_back(StockKey(line.supply_w, line.i_id));
    }
    NOFTL_RETURN_IF_ERROR(leaves.Submit(db_->c_idx, {CustomerKey(w, d, c)}));
    NOFTL_RETURN_IF_ERROR(leaves.Submit(db_->i_idx, ikeys));
    if (!rollback) {
      NOFTL_RETURN_IF_ERROR(leaves.Submit(db_->s_idx, skeys));
      NOFTL_RETURN_IF_ERROR(leaves.Submit(
          db_->o_cust_idx, {OrderCustKey(w, d, c, drow.next_o_id)}));
    }
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto crid_packed = db_->c_idx->Lookup(ctx, CustomerKey(w, d, c));
    if (!crid_packed.ok()) return crid_packed.status();
    crid = RecordId::Unpack(*crid_packed);
    for (int32_t n = 0; n < ol_cnt; n++) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto irid = db_->i_idx->Lookup(ctx, ikeys[n]);
      if (!irid.ok()) return irid.status();
      irids[n] = RecordId::Unpack(*irid);
      if (rollback) continue;
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto srid = db_->s_idx->Lookup(ctx, skeys[n]);
      if (!srid.ok()) return srid.status();
      srids[n] = RecordId::Unpack(*srid);
    }
    NOFTL_RETURN_IF_ERROR(rows.Submit(db_->customer, {crid}));
    NOFTL_RETURN_IF_ERROR(rows.Submit(db_->item, irids));
    if (!rollback) NOFTL_RETURN_IF_ERROR(rows.Submit(db_->stock, srids));
  } else {
    NOFTL_RETURN_IF_ERROR(CustomerById(ctx, w, d, c, &crid, &crow));
  }

  if (rollback) {
    // Unused item number: do the item reads, then roll back before any
    // write (keeps the engine consistent without an undo log; the I/O
    // profile of the aborted transaction is preserved).
    for (int32_t n = 0; n < ol_cnt; n++) {
      if (!batched_io_) {
        ctx->AddCpu(cpu_.per_index_probe_us);
        auto irid = db_->i_idx->Lookup(ctx, ItemKey(lines[n].i_id));
        if (!irid.ok()) return irid.status();
        irids[n] = RecordId::Unpack(*irid);
      }
      ItemRow irow;
      NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->item, irids[n], &irow));
    }
    if (batched_io_) {
      NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->customer, crid, &crow));
    }
    *committed = false;
    return Status::OK();
  }

  const int32_t o_id = drow.next_o_id;
  drow.next_o_id++;
  NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->district, drid, drow));

  OrderRow orow{};
  orow.o_id = o_id;
  orow.d_id = d;
  orow.w_id = w;
  orow.c_id = c;
  orow.entry_d = static_cast<int64_t>(ctx->now);
  orow.carrier_id = 0;
  orow.ol_cnt = ol_cnt;
  orow.all_local = all_local ? 1 : 0;
  auto orid = db_->order->Insert(ctx, RowSlice(orow));
  if (!orid.ok()) return orid.status();
  NOFTL_RETURN_IF_ERROR(
      db_->o_idx->Insert(ctx, OrderKey(w, d, o_id), orid->Pack()));
  NOFTL_RETURN_IF_ERROR(db_->o_cust_idx->Insert(
      ctx, OrderCustKey(w, d, c, o_id), orid->Pack()));

  NewOrderRow nrow{o_id, d, w};
  auto nrid = db_->new_order->Insert(ctx, RowSlice(nrow));
  if (!nrid.ok()) return nrid.status();
  NOFTL_RETURN_IF_ERROR(
      db_->no_idx->Insert(ctx, NewOrderKey(w, d, o_id), nrid->Pack()));
  // Batched: the district write and the inserts above ran while wave 2 was
  // in flight; the customer read reaps it.
  if (batched_io_) {
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->customer, crid, &crow));
  }

  for (int32_t n = 0; n < ol_cnt; n++) {
    const Line& line = lines[n];
    if (!batched_io_) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto irid = db_->i_idx->Lookup(ctx, ItemKey(line.i_id));
      if (!irid.ok()) return irid.status();
      irids[n] = RecordId::Unpack(*irid);
    }
    ItemRow irow;
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->item, irids[n], &irow));

    if (!batched_io_) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto srid_packed =
          db_->s_idx->Lookup(ctx, StockKey(line.supply_w, line.i_id));
      if (!srid_packed.ok()) return srid_packed.status();
      srids[n] = RecordId::Unpack(*srid_packed);
    }
    const RecordId srid = srids[n];
    StockRow srow;
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->stock, srid, &srow));
    if (srow.quantity >= line.qty + 10) {
      srow.quantity -= line.qty;
    } else {
      srow.quantity = srow.quantity - line.qty + 91;
    }
    srow.ytd += line.qty;
    srow.order_cnt++;
    if (line.supply_w != w) srow.remote_cnt++;
    NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->stock, srid, srow));

    OrderLineRow lrow{};
    lrow.o_id = o_id;
    lrow.d_id = d;
    lrow.w_id = w;
    lrow.number = n + 1;
    lrow.i_id = line.i_id;
    lrow.supply_w_id = line.supply_w;
    lrow.delivery_d = 0;
    lrow.quantity = line.qty;
    lrow.amount = static_cast<double>(line.qty) * irow.price;
    memcpy(lrow.dist_info, srow.dist[(d - 1) % 10], sizeof(lrow.dist_info));
    auto lrid = db_->order_line->Insert(ctx, RowSlice(lrow));
    if (!lrid.ok()) return lrid.status();
    NOFTL_RETURN_IF_ERROR(db_->ol_idx->Insert(
        ctx, OrderLineKey(w, d, o_id, n + 1), lrid->Pack()));
  }
  return Status::OK();
}

Status TpccTransactions::Payment(txn::TxnContext* ctx, int32_t w) {
  const TpccScale& scale = db_->scale();
  ctx->AddCpu(cpu_.per_txn_us);

  const int32_t d = RandomDistrict();
  const double amount = static_cast<double>(rng_->Uniform(100, 500000)) / 100.0;

  // 85% local customer; 15% from a remote warehouse (clause 2.5.1.2).
  int32_t c_w = w;
  int32_t c_d = d;
  if (scale.warehouses > 1 && rng_->Uniform(1, 100) > 85) {
    do {
      c_w = static_cast<int32_t>(rng_->Uniform(1, scale.warehouses));
    } while (c_w == w);
    c_d = RandomDistrict();
  }

  ScopedWarehouseLocks wlock(wlocks_, {w, c_w});

  ctx->AddCpu(cpu_.per_index_probe_us);
  auto wrid_packed = db_->w_idx->Lookup(ctx, WarehouseKey(w));
  if (!wrid_packed.ok()) return wrid_packed.status();
  const RecordId wrid = RecordId::Unpack(*wrid_packed);
  WarehouseRow wrow;
  NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->warehouse, wrid, &wrow));
  wrow.ytd += amount;
  NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->warehouse, wrid, wrow));

  ctx->AddCpu(cpu_.per_index_probe_us);
  auto drid_packed = db_->d_idx->Lookup(ctx, DistrictKey(w, d));
  if (!drid_packed.ok()) return drid_packed.status();
  const RecordId drid = RecordId::Unpack(*drid_packed);
  DistrictRow drow;
  NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->district, drid, &drow));
  drow.ytd += amount;
  NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->district, drid, drow));

  // 60% by last name, 40% by id (clause 2.5.1.2).
  RecordId crid;
  CustomerRow crow;
  if (rng_->Uniform(1, 100) <= 60) {
    const std::string last =
        Rng::LastName(static_cast<int>(nurand_->Next(255, 0, 999)));
    Status s = CustomerByName(ctx, c_w, c_d, last, &crid, &crow);
    if (s.IsNotFound()) {
      const auto c = static_cast<int32_t>(
          nurand_->Next(1023, 1, scale.customers_per_district));
      NOFTL_RETURN_IF_ERROR(CustomerById(ctx, c_w, c_d, c, &crid, &crow));
    } else if (!s.ok()) {
      return s;
    }
  } else {
    const auto c = static_cast<int32_t>(
        nurand_->Next(1023, 1, scale.customers_per_district));
    NOFTL_RETURN_IF_ERROR(CustomerById(ctx, c_w, c_d, c, &crid, &crow));
  }

  crow.balance -= amount;
  crow.ytd_payment += amount;
  crow.payment_cnt++;
  if (crow.credit[0] == 'B') {  // bad credit: rewrite c_data (clause 2.5.2.2)
    char info[64];
    snprintf(info, sizeof(info), "%d %d %d %d %d %.2f|", crow.c_id, c_d, c_w,
             d, w, amount);
    const size_t info_len = strlen(info);
    memmove(crow.data + info_len, crow.data, sizeof(crow.data) - info_len);
    memcpy(crow.data, info, info_len);
  }
  NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->customer, crid, crow));

  HistoryRow hrow{};
  hrow.c_id = crow.c_id;
  hrow.c_d_id = c_d;
  hrow.c_w_id = c_w;
  hrow.d_id = d;
  hrow.w_id = w;
  hrow.date = static_cast<int64_t>(ctx->now);
  hrow.amount = amount;
  SetField(hrow.data, GetField(wrow.name) + "    " + GetField(drow.name));
  auto hrid = db_->history->Insert(ctx, RowSlice(hrow));
  if (!hrid.ok()) return hrid.status();
  return Status::OK();
}

Status TpccTransactions::OrderStatus(txn::TxnContext* ctx, int32_t w) {
  const TpccScale& scale = db_->scale();
  ctx->AddCpu(cpu_.per_txn_us);
  const int32_t d = RandomDistrict();
  ScopedWarehouseLocks wlock(wlocks_, {w});

  RecordId crid;
  CustomerRow crow;
  if (rng_->Uniform(1, 100) <= 60) {
    const std::string last =
        Rng::LastName(static_cast<int>(nurand_->Next(255, 0, 999)));
    Status s = CustomerByName(ctx, w, d, last, &crid, &crow);
    if (s.IsNotFound()) {
      const auto c = static_cast<int32_t>(
          nurand_->Next(1023, 1, scale.customers_per_district));
      NOFTL_RETURN_IF_ERROR(CustomerById(ctx, w, d, c, &crid, &crow));
    } else if (!s.ok()) {
      return s;
    }
  } else {
    const auto c = static_cast<int32_t>(
        nurand_->Next(1023, 1, scale.customers_per_district));
    NOFTL_RETURN_IF_ERROR(CustomerById(ctx, w, d, c, &crid, &crow));
  }

  // Latest order: first entry of the customer's group (lo = ~o_id).
  ctx->AddCpu(cpu_.per_index_probe_us);
  const Key128 base = OrderCustKey(w, d, crow.c_id, 0);
  RecordId orid;
  bool found = false;
  NOFTL_RETURN_IF_ERROR(db_->o_cust_idx->ScanRange(
      ctx, {base.hi, 0}, {base.hi, ~0ull}, [&](Key128, uint64_t v) {
        orid = RecordId::Unpack(v);
        found = true;
        return false;  // first = latest
      }));
  if (!found) return Status::OK();  // customer without orders

  OrderRow orow;
  NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->order, orid, &orow));
  if (batched_io_) {
    // Resolve the lines first, submit their page reads, read from hits (the
    // first line access reaps the in-flight fetch).
    std::vector<RecordId> lrids(std::max(orow.ol_cnt, 0));
    for (int32_t n = 1; n <= orow.ol_cnt; n++) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto lrid = db_->ol_idx->Lookup(ctx, OrderLineKey(w, d, orow.o_id, n));
      if (!lrid.ok()) return lrid.status();
      lrids[n - 1] = RecordId::Unpack(*lrid);
    }
    ReadWave rows(ctx);
    NOFTL_RETURN_IF_ERROR(rows.Submit(db_->order_line, lrids));
    for (const RecordId& lrid : lrids) {
      OrderLineRow lrow;
      NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->order_line, lrid, &lrow));
    }
    return Status::OK();
  }
  for (int32_t n = 1; n <= orow.ol_cnt; n++) {
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto lrid = db_->ol_idx->Lookup(ctx, OrderLineKey(w, d, orow.o_id, n));
    if (!lrid.ok()) return lrid.status();
    OrderLineRow lrow;
    NOFTL_RETURN_IF_ERROR(
        ReadRow(ctx, db_->order_line, RecordId::Unpack(*lrid), &lrow));
  }
  return Status::OK();
}

Status TpccTransactions::OldestNewOrder(txn::TxnContext* ctx, int32_t w,
                                        DeliveryTarget* t, bool* found) {
  // The first entry of the district's group, if any. A forward scan from
  // the group's start reads only the leaf (or two) that entry lives in; a
  // range read would also prefetch the leaves of the whole queue.
  ctx->AddCpu(cpu_.per_index_probe_us);
  const Key128 base = NewOrderKey(w, t->d, 0);
  *found = false;
  NOFTL_RETURN_IF_ERROR(
      db_->no_idx->ScanFrom(ctx, base, [&](Key128 k, uint64_t v) {
        if (k.hi != base.hi) return false;
        t->no_key = k;
        t->nrid = RecordId::Unpack(v);
        *found = true;
        return false;
      }));
  t->o_id = static_cast<int32_t>(t->no_key.lo);
  return Status::OK();
}

Status TpccTransactions::DeliverOrder(txn::TxnContext* ctx, int32_t w,
                                      int32_t carrier, DeliveryTarget* t) {
  const int32_t d = t->d;
  NOFTL_RETURN_IF_ERROR(db_->new_order->Delete(ctx, t->nrid));
  NOFTL_RETURN_IF_ERROR(db_->no_idx->Delete(ctx, t->no_key));

  if (!batched_io_) {
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto orid = db_->o_idx->Lookup(ctx, OrderKey(w, d, t->o_id));
    if (!orid.ok()) return orid.status();
    t->orid = RecordId::Unpack(*orid);
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->order, t->orid, &t->orow));
    t->lrids.assign(std::max(t->orow.ol_cnt, 0), RecordId{});
  }
  t->orow.carrier_id = carrier;
  NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->order, t->orid, t->orow));

  double total = 0;
  for (int32_t n = 1; n <= t->orow.ol_cnt; n++) {
    if (!batched_io_) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto lrid = db_->ol_idx->Lookup(ctx, OrderLineKey(w, d, t->o_id, n));
      if (!lrid.ok()) return lrid.status();
      t->lrids[n - 1] = RecordId::Unpack(*lrid);
    }
    const RecordId lrid = t->lrids[n - 1];
    OrderLineRow lrow;
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->order_line, lrid, &lrow));
    lrow.delivery_d = static_cast<int64_t>(ctx->now);
    total += lrow.amount;
    NOFTL_RETURN_IF_ERROR(WriteRow(ctx, db_->order_line, lrid, lrow));
  }

  CustomerRow crow;
  if (batched_io_) {
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->customer, t->crid, &crow));
  } else {
    NOFTL_RETURN_IF_ERROR(
        CustomerById(ctx, w, d, t->orow.c_id, &t->crid, &crow));
  }
  crow.balance += total;
  crow.delivery_cnt++;
  return WriteRow(ctx, db_->customer, t->crid, crow);
}

Status TpccTransactions::Delivery(txn::TxnContext* ctx, int32_t w) {
  const TpccScale& scale = db_->scale();
  ctx->AddCpu(cpu_.per_txn_us);
  const auto carrier = static_cast<int32_t>(rng_->Uniform(1, 10));
  ScopedWarehouseLocks wlock(wlocks_, {w});

  if (!batched_io_) {
    // Serial: one district after the other, every read in program order.
    for (uint32_t dd = 1; dd <= scale.districts_per_warehouse; dd++) {
      DeliveryTarget t;
      t.d = static_cast<int32_t>(dd);
      bool found = false;
      NOFTL_RETURN_IF_ERROR(OldestNewOrder(ctx, w, &t, &found));
      if (!found) continue;  // district fully delivered (clause 2.7.4.2)
      NOFTL_RETURN_IF_ERROR(DeliverOrder(ctx, w, carrier, &t));
    }
    return Status::OK();
  }

  // Batched: the districts are independent, so their reads go out together,
  // one wave per dependency level across all of them —
  //   A: the NO_IDX leaf of each district's oldest order;
  //   B: the NEW_ORDER pages, and the O_IDX and OL_IDX leaves of the orders;
  //   C: the ORDER pages;
  //   D: the ORDER_LINE pages and the C_IDX leaves of the order's customers;
  //   E: the CUSTOMER pages.
  // The first probe or row read of a level reaps its wave and the rest hit.
  // The per-district mutations then run in district order, as serially, and
  // every access in them hits (each probe and row read is charged once).
  ReadWave wave_a(ctx);
  std::vector<Key128> no_from;
  std::vector<Key128> no_to;
  for (uint32_t dd = 1; dd <= scale.districts_per_warehouse; dd++) {
    no_from.push_back(NewOrderKey(w, static_cast<int32_t>(dd), 0));
    no_to.push_back({no_from.back().hi, ~0ull});
  }
  NOFTL_RETURN_IF_ERROR(wave_a.SubmitScanStarts(db_->no_idx, no_from, no_to));
  std::vector<DeliveryTarget> targets;
  for (uint32_t dd = 1; dd <= scale.districts_per_warehouse; dd++) {
    DeliveryTarget t;
    t.d = static_cast<int32_t>(dd);
    bool found = false;
    NOFTL_RETURN_IF_ERROR(OldestNewOrder(ctx, w, &t, &found));
    if (found) targets.push_back(std::move(t));
  }

  ReadWave wave_b(ctx);
  std::vector<RecordId> nrids;
  std::vector<Key128> o_keys;
  std::vector<Key128> ol_keys;
  for (const DeliveryTarget& t : targets) {
    nrids.push_back(t.nrid);
    o_keys.push_back(OrderKey(w, t.d, t.o_id));
    // An order's lines are adjacent keys: its first and its highest
    // possible line name every leaf holding them.
    ol_keys.push_back(OrderLineKey(w, t.d, t.o_id, 1));
    ol_keys.push_back(OrderLineKey(w, t.d, t.o_id, kMaxOrderLines));
  }
  NOFTL_RETURN_IF_ERROR(wave_b.Submit(db_->new_order, nrids));
  NOFTL_RETURN_IF_ERROR(wave_b.Submit(db_->o_idx, o_keys));
  NOFTL_RETURN_IF_ERROR(wave_b.Submit(db_->ol_idx, ol_keys));
  std::vector<RecordId> orids;
  for (size_t i = 0; i < targets.size(); i++) {
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto orid = db_->o_idx->Lookup(ctx, o_keys[i]);
    if (!orid.ok()) return orid.status();
    targets[i].orid = RecordId::Unpack(*orid);
    orids.push_back(targets[i].orid);
  }

  ReadWave wave_c(ctx);
  NOFTL_RETURN_IF_ERROR(wave_c.Submit(db_->order, orids));
  std::vector<RecordId> lrids;
  std::vector<Key128> c_keys;
  for (DeliveryTarget& t : targets) {
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->order, t.orid, &t.orow));
    for (int32_t n = 1; n <= t.orow.ol_cnt; n++) {
      ctx->AddCpu(cpu_.per_index_probe_us);
      auto lrid = db_->ol_idx->Lookup(ctx, OrderLineKey(w, t.d, t.o_id, n));
      if (!lrid.ok()) return lrid.status();
      t.lrids.push_back(RecordId::Unpack(*lrid));
      lrids.push_back(t.lrids.back());
    }
    c_keys.push_back(CustomerKey(w, t.d, t.orow.c_id));
  }

  ReadWave wave_d(ctx);
  NOFTL_RETURN_IF_ERROR(wave_d.Submit(db_->order_line, lrids));
  NOFTL_RETURN_IF_ERROR(wave_d.Submit(db_->c_idx, c_keys));
  std::vector<RecordId> crids;
  for (size_t i = 0; i < targets.size(); i++) {
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto crid = db_->c_idx->Lookup(ctx, c_keys[i]);
    if (!crid.ok()) return crid.status();
    targets[i].crid = RecordId::Unpack(*crid);
    crids.push_back(targets[i].crid);
  }

  ReadWave wave_e(ctx);
  NOFTL_RETURN_IF_ERROR(wave_e.Submit(db_->customer, crids));
  for (DeliveryTarget& t : targets) {
    NOFTL_RETURN_IF_ERROR(DeliverOrder(ctx, w, carrier, &t));
  }
  return Status::OK();
}

Status TpccTransactions::StockLevel(txn::TxnContext* ctx, int32_t w,
                                    int32_t d) {
  ctx->AddCpu(cpu_.per_txn_us);
  const auto threshold = static_cast<int32_t>(rng_->Uniform(10, 20));
  ScopedWarehouseLocks wlock(wlocks_, {w});

  ctx->AddCpu(cpu_.per_index_probe_us);
  auto drid = db_->d_idx->Lookup(ctx, DistrictKey(w, d));
  if (!drid.ok()) return drid.status();
  DistrictRow drow;
  NOFTL_RETURN_IF_ERROR(
      ReadRow(ctx, db_->district, RecordId::Unpack(*drid), &drow));

  // Items of the last 20 orders (clause 2.8.2.2).
  const int32_t lo_o = std::max(1, drow.next_o_id - 20);
  std::set<int32_t> items;
  if (batched_io_) {
    // Batched I/O: the index range read collects record ids only; the
    // ~200 order-line rows are then submitted in queued submissions, and
    // the distinct stock rows after them — the two big multi-row reads of
    // the heaviest read-only transaction. The per-row CPU of the collection
    // loop hides under the in-flight reads.
    std::vector<RecordId> lrids;
    NOFTL_RETURN_IF_ERROR(db_->ol_idx->ScanRange(
        ctx, OrderLineKey(w, d, lo_o, 0),
        OrderLineKey(w, d, drow.next_o_id, 0), [&](Key128, uint64_t v) {
          ctx->AddCpu(cpu_.per_index_probe_us);
          lrids.push_back(RecordId::Unpack(v));
          return true;
        }));
    ReadWave lines(ctx);
    NOFTL_RETURN_IF_ERROR(lines.Submit(db_->order_line, lrids));
    for (const RecordId& lrid : lrids) {
      OrderLineRow lrow;
      // Mirror the serial branch's semantics: a failed line read stops the
      // collection with the items gathered so far, it does not abort.
      if (!ReadRow(ctx, db_->order_line, lrid, &lrow).ok()) break;
      items.insert(lrow.i_id);
    }
  } else {
    NOFTL_RETURN_IF_ERROR(db_->ol_idx->ScanRange(
        ctx, OrderLineKey(w, d, lo_o, 0),
        OrderLineKey(w, d, drow.next_o_id, 0),
        [&](Key128, uint64_t v) {
          ctx->AddCpu(cpu_.per_index_probe_us);
          OrderLineRow lrow;
          if (!ReadRow(ctx, db_->order_line, RecordId::Unpack(v), &lrow).ok()) {
            return false;
          }
          items.insert(lrow.i_id);
          return true;
        }));
  }

  // Batched I/O: the stock index leaves of every item go out as one fetch
  // before the probes, the stock rows as another after them.
  ReadWave stock_leaves(ctx);
  ReadWave stock_rows(ctx);
  if (batched_io_) {
    std::vector<Key128> skeys;
    skeys.reserve(items.size());
    for (int32_t i_id : items) skeys.push_back(StockKey(w, i_id));
    NOFTL_RETURN_IF_ERROR(stock_leaves.Submit(db_->s_idx, skeys));
  }
  std::vector<RecordId> srids;
  srids.reserve(items.size());
  for (int32_t i_id : items) {
    ctx->AddCpu(cpu_.per_index_probe_us);
    auto srid = db_->s_idx->Lookup(ctx, StockKey(w, i_id));
    if (!srid.ok()) return srid.status();
    srids.push_back(RecordId::Unpack(*srid));
  }
  if (batched_io_) {
    NOFTL_RETURN_IF_ERROR(stock_rows.Submit(db_->stock, srids));
  }
  int low = 0;
  for (const RecordId& srid : srids) {
    StockRow srow;
    NOFTL_RETURN_IF_ERROR(ReadRow(ctx, db_->stock, srid, &srow));
    if (srow.quantity < threshold) low++;
  }
  (void)low;
  return Status::OK();
}

}  // namespace noftl::tpcc
