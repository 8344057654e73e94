// Heap file: an unordered collection of records in slotted pages, accessed
// through the buffer pool. One heap file per table.
//
// Free-space management: an in-memory list of page numbers that recently had
// room (approximate FSM, as engines keep in practice). Records are addressed
// by RecordId = (page_no, slot).
//
// Thread safety: a table-level reader/writer latch. Reads, scans and
// prefetches ride shared holds; Insert/Delete/DropStorage take it
// exclusively (they restructure slotted pages and the page/free lists).
// Update is optimistic: a same-size update is an in-slot overwrite and runs
// shared — the common case for fixed-layout TPC-C rows — while a
// size-changing update (which may compact the page) retries under the
// exclusive latch. Conflicting access to the same record must be serialized
// by the caller (TPC-C warehouse locks); the latch protects page and table
// structure only. Single-thread behaviour is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/slotted_page.h"
#include "storage/tablespace.h"
#include "txn/txn.h"

namespace noftl::storage {

/// Compact record address, packable into an index value.
struct RecordId {
  uint64_t page_no = 0;
  uint16_t slot = 0;

  uint64_t Pack() const { return (page_no << 16) | slot; }
  static RecordId Unpack(uint64_t v) {
    return RecordId{v >> 16, static_cast<uint16_t>(v & 0xFFFF)};
  }
  bool operator==(const RecordId&) const = default;
};

class HeapFile {
 public:
  /// `object_id` identifies this table in flash OOB metadata and catalogs.
  HeapFile(uint32_t object_id, std::string name, Tablespace* tablespace,
           buffer::BufferPool* pool);

  uint32_t object_id() const { return object_id_; }
  const std::string& name() const { return name_; }
  uint64_t record_count() const { return record_count_; }
  uint64_t page_count() const {
    ReaderLock lock(latch_);
    return pages_.size();
  }
  Tablespace* tablespace() { return tablespace_; }

  /// Release every page of this heap back to the tablespace (DROP TABLE):
  /// buffered copies are discarded, flash copies trimmed — under NoFTL the
  /// space is reclaimable garbage immediately, no device-blind overwrite
  /// needed. The heap is empty but reusable afterwards.
  Status DropStorage(txn::TxnContext* ctx);

  Result<RecordId> Insert(txn::TxnContext* ctx, Slice record);
  Result<std::string> Read(txn::TxnContext* ctx, RecordId rid);
  /// In-place update; NoSpace if the record outgrew its page (caller must
  /// delete + reinsert and fix indexes).
  Status Update(txn::TxnContext* ctx, RecordId rid, Slice record);
  Status Delete(txn::TxnContext* ctx, RecordId rid);

  /// Full scan; callback returns false to stop early. Pages are prefetched
  /// in batched chunks and, when the pool is large enough, pipelined: the
  /// next chunk's reads are submitted before the current chunk is processed,
  /// so the per-record callback CPU hides under the in-flight flash reads
  /// and a cold scan's wall time approaches max(compute, I/O) per chunk.
  Status Scan(txn::TxnContext* ctx,
              const std::function<bool(RecordId, Slice)>& fn);

  /// Make the pages holding the given records resident in one batched
  /// submission (duplicate pages collapse to one read). Used by multi-row
  /// operations — e.g. TPC-C NewOrder's stock updates and Delivery's order
  /// lines — before the per-record accesses, which then hit the pool.
  Status Prefetch(txn::TxnContext* ctx, const std::vector<RecordId>& rids);

  /// Submit-early half of Prefetch: enqueue the reads and return without
  /// waiting — computation between this call and the first access of a
  /// fetched page overlaps with the in-flight reads (that access, or an
  /// explicit BufferPool::WaitFetch, reaps the fetch). `*ticket` is in/out
  /// like BufferPool::SubmitFetch's: a live ticket of `ctx` is joined, and
  /// on return it names the in-flight fetch (0 = everything resident).
  Status SubmitPrefetch(txn::TxnContext* ctx,
                        const std::vector<RecordId>& rids,
                        buffer::FetchTicket* ticket);

  buffer::BufferPool* pool() { return pool_; }

 private:
  /// Page with room for `bytes`, allocating a fresh one if needed. Runs on
  /// the insert path under the exclusive latch (it grows pages_/free_list_).
  Result<uint64_t> PageWithSpace(txn::TxnContext* ctx, uint32_t bytes)
      REQUIRES(latch_);

  /// Visit records of pages_[begin, end); *keep_going mirrors the callback.
  Status ScanPages(txn::TxnContext* ctx, size_t begin, size_t end,
                   const std::function<bool(RecordId, Slice)>& fn,
                   bool* keep_going) REQUIRES_SHARED(latch_);

  uint32_t object_id_;
  std::string name_;
  Tablespace* tablespace_;
  buffer::BufferPool* pool_;
  /// Table latch: shared for reads/scans/same-size updates, exclusive for
  /// inserts/deletes/drops. LockRank::kHeap — ordered above the buffer-pool
  /// latch and everything below it (it is legally held across page I/O).
  mutable SharedMutex latch_{LockRank::kHeap};
  /// Tablespace pages owned by this heap.
  std::vector<uint64_t> pages_ GUARDED_BY(latch_);
  /// Pages that recently had space.
  std::vector<uint64_t> free_list_ GUARDED_BY(latch_);
  Relaxed<uint64_t> record_count_ = 0;  ///< readable without the latch
};

}  // namespace noftl::storage
