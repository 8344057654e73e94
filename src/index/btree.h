// B+-tree with 128-bit keys and 64-bit values, stored in a tablespace and
// accessed through the buffer pool (so index I/O competes for flash like any
// other page traffic — the paper's Figure 2 places indexes in regions
// exactly like tables).
//
// Keys are (hi, lo) pairs compared lexicographically. TPC-C composite keys
// pack into `hi`; `lo` disambiguates duplicates (usually the record id), so
// every stored key is unique and equal-`hi` ranges enumerate duplicates in
// insertion-independent order.
//
// Leaf splits follow the insert direction (InnoDB's
// btr_page_get_split_rec_to_right heuristic). Each leaf remembers where its
// last insert went. A full leaf whose next insert lands right after that
// entry is taking a run — the loader's key-ordered inserts, or NewOrder
// appending within a district — and splits at the insertion point:
// the left leaf keeps the entries before it plus the new key, the right
// takes the rest, and a run at the leaf's end starts a right leaf holding
// only the new key. A run therefore leaves full leaves behind it instead of
// half-full ones. Every other full-leaf insert (random keys, a run's first
// key, a descending run, which inserts at position 0) splits in the middle.
// Internal nodes always split in the middle.
//
// Deletes free at empty (Johnson & Shasha, "B-trees with inserts and
// deletes: why free-at-empty is better than merge-at-half"): a node is never
// merged or rebalanced, but a leaf whose last entry goes is unlinked from the
// leaf chain and from its parent, a parent left without children goes the
// same way, and a root left with one child hands the root to it. The freed
// pages return to the tablespace (their flash copies are trimmed, so GC
// never copies them). Only the root leaf of an empty tree is ever empty, so
// a scan never walks dead leaves: TPC-C's Delivery deletes the oldest
// NEW_ORDER entry of each district, and under lazy deletes every district's
// range would start with a growing run of empty leaves. Underfull nodes are
// fine; lookups never see deleted keys.
//
// Snapshot readers (TxnContext::snapshot_seq) read node pages as of their
// sequence, so a leaf freed and reused after the snapshot still reads as it
// was. They descend from the current root and height, though, so a root
// split or collapse between a snapshot's open and its reads is not
// supported.
//
// Thread safety: a tree-level reader/writer latch. Lookups and scans ride
// shared holds (node pages are only read); Insert/Delete/DropStorage take
// it exclusively — splits and in-node entry shifts restructure pages that
// concurrent descents would otherwise read mid-move. Conflicting access to
// the same logical rows is the caller's job (TPC-C warehouse locks); the
// latch only protects tree structure. Single-thread behaviour is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/annotated_mutex.h"
#include "common/atomic_counter.h"
#include "common/status.h"
#include "storage/tablespace.h"
#include "txn/txn.h"

namespace noftl::index {

struct Key128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Key128&) const = default;
  auto operator<=>(const Key128&) const = default;

  static Key128 Min() { return {0, 0}; }
  static Key128 Max() { return {~0ull, ~0ull}; }
};

class BTree {
 public:
  /// Creates an empty tree rooted in a fresh leaf page of `tablespace`.
  /// `object_id` tags the index's pages in flash OOB metadata.
  static Result<BTree*> Create(uint32_t object_id, std::string name,
                               storage::Tablespace* tablespace,
                               buffer::BufferPool* pool, txn::TxnContext* ctx);

  uint32_t object_id() const { return object_id_; }
  const std::string& name() const { return name_; }
  uint64_t entry_count() const { return entry_count_; }
  uint32_t height() const { return height_; }

  /// Insert a (key, value) pair. AlreadyExists if the exact key is present.
  Status Insert(txn::TxnContext* ctx, Key128 key, uint64_t value);

  /// Point lookup of the exact key.
  Result<uint64_t> Lookup(txn::TxnContext* ctx, Key128 key);

  /// Remove the exact key. NotFound if absent.
  Status Delete(txn::TxnContext* ctx, Key128 key);

  /// Visit all entries with key >= `from`, in order, until the callback
  /// returns false or the tree is exhausted.
  Status ScanFrom(txn::TxnContext* ctx, Key128 from,
                  const std::function<bool(Key128, uint64_t)>& fn);

  /// Visit all entries in [from, to] inclusive. The leaves covering the
  /// range under the starting leaf's parent are submitted as one queued
  /// prefetch before the chain walk and reaped at the first leaf touch, so
  /// a cold range read waits for the slowest die instead of paying each
  /// leaf miss serially — and the descent work overlaps the in-flight
  /// reads.
  Status ScanRange(txn::TxnContext* ctx, Key128 from, Key128 to,
                   const std::function<bool(Key128, uint64_t)>& fn);

  /// Submit-early half of a batch of point lookups: descend every key
  /// together — each internal level made resident by one batched read —
  /// and submit the distinct leaves as one queued fetch, returning without
  /// waiting. The caller's Lookup calls then reap the fetch at the first
  /// leaf touch and hit the pool, so k cold probes wait for one round trip
  /// instead of k. `*ticket` is in/out like BufferPool::SubmitFetch's: a
  /// live ticket of `ctx` is joined, and on return it names the in-flight
  /// fetch (0 = every leaf resident); reap it with BufferPool::WaitFetch.
  /// Logical results of the lookups are unchanged.
  Status SubmitLeafFetch(txn::TxnContext* ctx, const std::vector<Key128>& keys,
                         buffer::FetchTicket* ticket);

  /// SubmitLeafFetch for short forward scans — a ScanFrom(from[i]) that
  /// stops at the first entry up to to[i]: besides the leaf each start key
  /// routes to, the leaf after it (same parent) whenever that leaf's keys
  /// begin within the range, since the routed leaf may end before the
  /// range's first entry. `from` and `to` are parallel.
  Status SubmitScanStartFetch(txn::TxnContext* ctx,
                              const std::vector<Key128>& from,
                              const std::vector<Key128>& to,
                              buffer::FetchTicket* ticket);

  buffer::BufferPool* pool() const { return pool_; }

  /// Structural validation, O(n); test aid. Checks key order within nodes
  /// and against the separators above them, uniform leaf depth, that no
  /// leaf but an empty tree's root is empty and the root has two or more
  /// children, that the leaf chain visits exactly the leaves descent reaches
  /// and in the same order, and that entry_count() and page_count() match
  /// what is reachable. When valid, `*leaf_count` (if given) is the number
  /// of leaves.
  Status Validate(txn::TxnContext* ctx, uint64_t* leaf_count = nullptr);

  /// Pages allocated to this index (every one reachable from the root).
  uint64_t page_count() const {
    ReaderLock lock(latch_);
    return pages_.size();
  }

  /// Disable the batched leaf prefetch of ScanRange (serial-baseline A/B
  /// measurements; on by default).
  void set_range_prefetch(bool on) { range_prefetch_ = on; }

  /// Release every node page back to the tablespace (DROP INDEX); flash
  /// copies are trimmed. The tree must not be used afterwards.
  Status DropStorage(txn::TxnContext* ctx);

 private:
  BTree(uint32_t object_id, std::string name, storage::Tablespace* tablespace,
        buffer::BufferPool* pool);

  // Node layout constants. Every node starts with a 32-byte header:
  //   0  u16 magic
  //   2  u16 flags (bit 0: leaf)
  //   4  u16 count
  //   6  u16 last-insert hint (leaves only): the position just after the
  //          entry last inserted into this leaf, 0 = none. Every leaf insert
  //          sets it; a split gives it to the half that took the new key
  //          and clears the other's; a delete clears it.
  //   8  u64 next_leaf + 1 (0 = none; leaves only)
  //  16  u64 leftmost child page (internal only)
  //  24  u64 reserved
  // followed by entries[count] of { u64 key_hi, u64 key_lo, u64 value or
  // child page }.
  static constexpr uint16_t kMagic = 0x4254;  // "BT"
  static constexpr uint32_t kHeaderSize = 32;
  static constexpr uint32_t kEntrySize = 24;

  struct Node;  // page-buffer view, defined in btree.cc

  uint32_t MaxEntries() const {
    return (tablespace_->page_size() - kHeaderSize) / kEntrySize;
  }

  Result<uint64_t> NewNodePage(txn::TxnContext* ctx, bool leaf)
      REQUIRES(latch_);

  /// Descend to the leaf that would contain `key`, recording the path of
  /// (page_no, child_index) for split propagation.
  struct PathEntry {
    uint64_t page_no;
    uint32_t child_index;  ///< index in parent's child list that was taken
  };
  Status DescendToLeaf(txn::TxnContext* ctx, Key128 key,
                       std::vector<PathEntry>* path, uint64_t* leaf_page)
      REQUIRES_SHARED(latch_);

  /// ScanFrom body; caller holds latch_ (shared suffices).
  Status ScanFromLocked(txn::TxnContext* ctx, Key128 from,
                        const std::function<bool(Key128, uint64_t)>& fn)
      REQUIRES_SHARED(latch_);

  static constexpr uint64_t kNoPage = ~0ull;

  /// The leaf chained just before the leaf `path` leads to, or kNoPage for
  /// the tree's leftmost leaf.
  Result<uint64_t> PredecessorLeaf(txn::TxnContext* ctx,
                                   const std::vector<PathEntry>& path)
      REQUIRES(latch_);

  /// Free-at-empty: unlink the emptied `leaf_page` (reached by `path`, its
  /// chain successor `next_plus1`) from the chain and its parent, free
  /// ancestors left childless, collapse one-child roots, and release every
  /// removed page.
  Status FreeEmptyLeaf(txn::TxnContext* ctx, const std::vector<PathEntry>& path,
                       uint64_t leaf_page, uint64_t next_plus1)
      REQUIRES(latch_);

  /// Split handling after a leaf/internal insert overflowed.
  Status InsertIntoParent(txn::TxnContext* ctx, std::vector<PathEntry>* path,
                          Key128 sep, uint64_t new_child) REQUIRES(latch_);

  /// Submit a queued read of the leaves of [from, to] that hang off the
  /// starting leaf's parent (the parent's child list names them without
  /// touching the leaf chain). Bounded, best-effort: covers up to one
  /// inner-node fanout. Returns without waiting; `*ticket` names the
  /// in-flight fetch (0 = everything resident).
  /// Core of SubmitLeafFetch / SubmitScanStartFetch (`to` empty = point
  /// probes only).
  Status SubmitLeaves(txn::TxnContext* ctx, const std::vector<Key128>& keys,
                      const std::vector<Key128>& to,
                      buffer::FetchTicket* ticket);
  Status PrefetchLeaves(txn::TxnContext* ctx, Key128 from, Key128 to,
                        buffer::FetchTicket* ticket) REQUIRES_SHARED(latch_);

  uint32_t object_id_;
  std::string name_;
  storage::Tablespace* tablespace_;
  buffer::BufferPool* pool_;
  /// Tree latch: shared for lookups/scans, exclusive for inserts/deletes.
  /// LockRank::kIndex — ordered above the buffer-pool latch (node fixes run
  /// under a hold) and the tablespace/backend layers page allocation crosses.
  mutable SharedMutex latch_{LockRank::kIndex};
  uint64_t root_page_ GUARDED_BY(latch_) = 0;
  Relaxed<uint64_t> entry_count_ = 0;   ///< readable without the latch
  Relaxed<uint32_t> height_ = 1;        ///< readable without the latch
  bool range_prefetch_ = true;
  /// All node pages, for DropStorage and page_count().
  std::vector<uint64_t> pages_ GUARDED_BY(latch_);
};

}  // namespace noftl::index
