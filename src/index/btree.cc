#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace noftl::index {

using buffer::PageKey;

// Node byte layout:
//   0  u16 magic
//   2  u16 flags (bit 0: leaf)
//   4  u16 count
//   6  u16 pad
//   8  u64 next_leaf + 1 (0 = none; leaves only)
//  16  u64 leftmost child page (internal only)
//  24  u64 reserved
//  32  entries[count]: { u64 key_hi, u64 key_lo, u64 value_or_child }
struct BTree::Node {
  char* data;
  uint32_t page_size;

  bool IsLeaf() const { return (DecodeFixed16(data + 2) & 1) != 0; }
  uint16_t Count() const { return DecodeFixed16(data + 4); }
  void SetCount(uint16_t n) { EncodeFixed16(data + 4, n); }
  uint64_t NextLeaf() const { return DecodeFixed64(data + 8); }  // +1 encoded
  void SetNextLeaf(uint64_t page_plus1) { EncodeFixed64(data + 8, page_plus1); }
  uint64_t LeftChild() const { return DecodeFixed64(data + 16); }
  void SetLeftChild(uint64_t page) { EncodeFixed64(data + 16, page); }

  static void Format(char* data, uint32_t page_size, bool leaf) {
    memset(data, 0, page_size);
    EncodeFixed16(data + 0, kMagic);
    EncodeFixed16(data + 2, leaf ? 1 : 0);
  }

  char* Entry(uint32_t i) { return data + kHeaderSize + i * kEntrySize; }
  const char* Entry(uint32_t i) const {
    return data + kHeaderSize + i * kEntrySize;
  }

  Key128 KeyAt(uint32_t i) const {
    return {DecodeFixed64(Entry(i)), DecodeFixed64(Entry(i) + 8)};
  }
  uint64_t ValueAt(uint32_t i) const { return DecodeFixed64(Entry(i) + 16); }
  void SetEntry(uint32_t i, Key128 key, uint64_t value) {
    EncodeFixed64(Entry(i), key.hi);
    EncodeFixed64(Entry(i) + 8, key.lo);
    EncodeFixed64(Entry(i) + 16, value);
  }

  /// First index with KeyAt(i) >= key (binary search).
  uint32_t LowerBound(Key128 key) const {
    uint32_t lo = 0;
    uint32_t hi = Count();
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (KeyAt(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child to follow for `key` in an internal node: entries are separators
  /// with their subtree's minimum key; take the last entry with key <= key,
  /// or the leftmost child if all separators exceed key.
  uint64_t ChildFor(Key128 key, uint32_t* child_index) const {
    const uint32_t lb = LowerBound(key);
    uint32_t idx;
    if (lb < Count() && KeyAt(lb) == key) {
      idx = lb + 1;  // equal separator: key lives in that entry's child
    } else {
      idx = lb;  // first separator greater than key; take the previous child
    }
    if (child_index != nullptr) *child_index = idx;
    return idx == 0 ? LeftChild() : ValueAt(idx - 1);
  }

  void InsertAt(uint32_t i, Key128 key, uint64_t value) {
    const uint16_t n = Count();
    memmove(Entry(i + 1), Entry(i), static_cast<size_t>(n - i) * kEntrySize);
    SetEntry(i, key, value);
    SetCount(n + 1);
  }

  void RemoveAt(uint32_t i) {
    const uint16_t n = Count();
    memmove(Entry(i), Entry(i + 1),
            static_cast<size_t>(n - i - 1) * kEntrySize);
    SetCount(n - 1);
  }
};

BTree::BTree(uint32_t object_id, std::string name,
             storage::Tablespace* tablespace, buffer::BufferPool* pool)
    : object_id_(object_id),
      name_(std::move(name)),
      tablespace_(tablespace),
      pool_(pool) {}

Result<BTree*> BTree::Create(uint32_t object_id, std::string name,
                             storage::Tablespace* tablespace,
                             buffer::BufferPool* pool, txn::TxnContext* ctx) {
  auto tree = std::unique_ptr<BTree>(
      new BTree(object_id, std::move(name), tablespace, pool));
  // Unpublished, but NewNodePage carries REQUIRES(latch_) and the runtime
  // tracker expects acquisitions to pair — take the (uncontended) latch.
  WriterLock lock(tree->latch_);
  auto root = tree->NewNodePage(ctx, /*leaf=*/true);
  if (!root.ok()) return root.status();
  tree->root_page_ = *root;
  return tree.release();
}

Result<uint64_t> BTree::NewNodePage(txn::TxnContext* ctx, bool leaf) {
  auto page_no = tablespace_->AllocatePage(object_id_);
  if (!page_no.ok()) return page_no.status();
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *page_no},
                          /*create=*/true);
  if (!h.ok()) return h.status();
  Node::Format(h->data, tablespace_->page_size(), leaf);
  pool_->Unfix(*h, /*dirty=*/true);
  pages_.push_back(*page_no);
  return *page_no;
}

Status BTree::DropStorage(txn::TxnContext* ctx) {
  (void)ctx;
  WriterLock lock(latch_);
  for (uint64_t page_no : pages_) {
    pool_->Discard({tablespace_->tablespace_id(), page_no});
    NOFTL_RETURN_IF_ERROR(tablespace_->FreePage(page_no));
  }
  pages_.clear();
  entry_count_ = 0;
  height_ = 1;
  root_page_ = 0;
  return Status::OK();
}

Status BTree::DescendToLeaf(txn::TxnContext* ctx, Key128 key,
                            std::vector<PathEntry>* path,
                            uint64_t* leaf_page) {
  uint64_t page_no = root_page_;
  for (uint32_t level = 0; level + 1 < height_; level++) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    assert(!node.IsLeaf());
    uint32_t child_index = 0;
    const uint64_t child = node.ChildFor(key, &child_index);
    pool_->Unfix(*h, /*dirty=*/false);
    if (path != nullptr) path->push_back({page_no, child_index});
    page_no = child;
  }
  *leaf_page = page_no;
  return Status::OK();
}

Status BTree::Insert(txn::TxnContext* ctx, Key128 key, uint64_t value) {
  WriterLock lock(latch_);
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, &path, &leaf_page));

  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), leaf_page},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node leaf{h->data, tablespace_->page_size()};
  assert(leaf.IsLeaf());

  const uint32_t pos = leaf.LowerBound(key);
  if (pos < leaf.Count() && leaf.KeyAt(pos) == key) {
    pool_->Unfix(*h, /*dirty=*/false);
    return Status::AlreadyExists("duplicate key");
  }

  if (leaf.Count() < MaxEntries()) {
    leaf.InsertAt(pos, key, value);
    pool_->Unfix(*h, /*dirty=*/true);
    entry_count_++;
    return Status::OK();
  }

  // Split the leaf: upper half moves to a new right sibling.
  auto right_page = NewNodePage(ctx, /*leaf=*/true);
  if (!right_page.ok()) {
    pool_->Unfix(*h, /*dirty=*/false);
    return right_page.status();
  }
  auto rh = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *right_page},
                           /*create=*/false);
  if (!rh.ok()) {
    pool_->Unfix(*h, /*dirty=*/false);
    return rh.status();
  }
  Node right{rh->data, tablespace_->page_size()};

  const uint32_t total = leaf.Count();
  const uint32_t split = total / 2;
  for (uint32_t i = split; i < total; i++) {
    right.InsertAt(i - split, leaf.KeyAt(i), leaf.ValueAt(i));
  }
  leaf.SetCount(static_cast<uint16_t>(split));
  right.SetNextLeaf(leaf.NextLeaf());
  leaf.SetNextLeaf(*right_page + 1);

  // Place the new entry in the correct half.
  const Key128 sep = right.KeyAt(0);
  if (key < sep) {
    leaf.InsertAt(leaf.LowerBound(key), key, value);
  } else {
    right.InsertAt(right.LowerBound(key), key, value);
  }
  pool_->Unfix(*h, /*dirty=*/true);
  pool_->Unfix(*rh, /*dirty=*/true);
  entry_count_++;

  return InsertIntoParent(ctx, &path, sep, *right_page);
}

Status BTree::InsertIntoParent(txn::TxnContext* ctx,
                               std::vector<PathEntry>* path, Key128 sep,
                               uint64_t new_child) {
  while (true) {
    if (path->empty()) {
      // Split reached the root: grow the tree by one level.
      auto new_root = NewNodePage(ctx, /*leaf=*/false);
      if (!new_root.ok()) return new_root.status();
      auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *new_root},
                              /*create=*/false);
      if (!h.ok()) return h.status();
      Node root{h->data, tablespace_->page_size()};
      root.SetLeftChild(root_page_);
      root.InsertAt(0, sep, new_child);
      pool_->Unfix(*h, /*dirty=*/true);
      root_page_ = *new_root;
      height_++;
      return Status::OK();
    }

    const PathEntry parent = path->back();
    path->pop_back();
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), parent.page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    assert(!node.IsLeaf());

    if (node.Count() < MaxEntries()) {
      node.InsertAt(node.LowerBound(sep), sep, new_child);
      pool_->Unfix(*h, /*dirty=*/true);
      return Status::OK();
    }

    // Split the internal node. The middle separator moves up (it does not
    // stay in either half).
    auto right_page = NewNodePage(ctx, /*leaf=*/false);
    if (!right_page.ok()) {
      pool_->Unfix(*h, /*dirty=*/false);
      return right_page.status();
    }
    auto rh = pool_->FixPage(ctx, {tablespace_->tablespace_id(), *right_page},
                             /*create=*/false);
    if (!rh.ok()) {
      pool_->Unfix(*h, /*dirty=*/false);
      return rh.status();
    }
    Node right{rh->data, tablespace_->page_size()};

    // Conceptually insert (sep, new_child) into the sorted entry list first,
    // then split around the middle.
    std::vector<std::pair<Key128, uint64_t>> entries;
    entries.reserve(node.Count() + 1);
    for (uint32_t i = 0; i < node.Count(); i++) {
      entries.emplace_back(node.KeyAt(i), node.ValueAt(i));
    }
    entries.insert(entries.begin() + node.LowerBound(sep), {sep, new_child});

    const uint32_t mid = static_cast<uint32_t>(entries.size()) / 2;
    const Key128 up_key = entries[mid].first;
    const uint64_t up_child = entries[mid].second;

    node.SetCount(0);
    for (uint32_t i = 0; i < mid; i++) {
      node.InsertAt(i, entries[i].first, entries[i].second);
    }
    right.SetLeftChild(up_child);
    for (uint32_t i = mid + 1; i < entries.size(); i++) {
      right.InsertAt(i - mid - 1, entries[i].first, entries[i].second);
    }
    pool_->Unfix(*h, /*dirty=*/true);
    pool_->Unfix(*rh, /*dirty=*/true);

    sep = up_key;
    new_child = *right_page;
  }
}

Result<uint64_t> BTree::Lookup(txn::TxnContext* ctx, Key128 key) {
  ReaderLock lock(latch_);
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, nullptr, &leaf_page));
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), leaf_page},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node leaf{h->data, tablespace_->page_size()};
  const uint32_t pos = leaf.LowerBound(key);
  Result<uint64_t> out = Status::NotFound("key absent");
  if (pos < leaf.Count() && leaf.KeyAt(pos) == key) {
    out = leaf.ValueAt(pos);
  }
  pool_->Unfix(*h, /*dirty=*/false);
  return out;
}

Status BTree::Delete(txn::TxnContext* ctx, Key128 key) {
  WriterLock lock(latch_);
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, nullptr, &leaf_page));
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), leaf_page},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node leaf{h->data, tablespace_->page_size()};
  const uint32_t pos = leaf.LowerBound(key);
  if (pos >= leaf.Count() || !(leaf.KeyAt(pos) == key)) {
    pool_->Unfix(*h, /*dirty=*/false);
    return Status::NotFound("key absent");
  }
  leaf.RemoveAt(pos);
  pool_->Unfix(*h, /*dirty=*/true);
  entry_count_--;
  return Status::OK();
}

Status BTree::ScanFrom(txn::TxnContext* ctx, Key128 from,
                       const std::function<bool(Key128, uint64_t)>& fn) {
  ReaderLock lock(latch_);
  return ScanFromLocked(ctx, from, fn);
}

Status BTree::ScanFromLocked(txn::TxnContext* ctx, Key128 from,
                             const std::function<bool(Key128, uint64_t)>& fn) {
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, from, nullptr, &leaf_page));
  uint64_t page_no = leaf_page;
  bool first_leaf = true;
  while (true) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node leaf{h->data, tablespace_->page_size()};
    const uint32_t start = first_leaf ? leaf.LowerBound(from) : 0;
    first_leaf = false;
    for (uint32_t i = start; i < leaf.Count(); i++) {
      if (!fn(leaf.KeyAt(i), leaf.ValueAt(i))) {
        pool_->Unfix(*h, /*dirty=*/false);
        return Status::OK();
      }
    }
    const uint64_t next = leaf.NextLeaf();
    pool_->Unfix(*h, /*dirty=*/false);
    if (next == 0) return Status::OK();
    page_no = next - 1;
  }
}

Status BTree::PrefetchLeaves(txn::TxnContext* ctx, Key128 from, Key128 to,
                             buffer::FetchTicket* ticket) {
  *ticket = 0;
  if (height_ < 2) return Status::OK();  // root is the only leaf
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, from, &path, &leaf_page));
  const PathEntry parent = path.back();

  // The parent's child list names the leaves in key order: child i covers
  // keys from separator i-1 (its subtree minimum). Collect children from the
  // starting position until a separator exceeds `to` — those leaves are the
  // range, and they can be read together without walking the chain.
  static constexpr size_t kMaxPrefetch = 16;
  std::vector<buffer::PageKey> keys;
  auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), parent.page_no},
                          /*create=*/false);
  if (!h.ok()) return h.status();
  Node node{h->data, tablespace_->page_size()};
  for (uint32_t idx = parent.child_index;
       idx <= node.Count() && keys.size() < kMaxPrefetch; idx++) {
    if (idx > parent.child_index && to < node.KeyAt(idx - 1)) break;
    const uint64_t child = idx == 0 ? node.LeftChild() : node.ValueAt(idx - 1);
    keys.push_back({tablespace_->tablespace_id(), child});
  }
  pool_->Unfix(*h, /*dirty=*/false);
  return pool_->SubmitFetch(ctx, keys, ticket);
}

Status BTree::SubmitLeafFetch(txn::TxnContext* ctx,
                              const std::vector<Key128>& keys,
                              buffer::FetchTicket* ticket) {
  *ticket = 0;
  if (keys.empty()) return Status::OK();
  ReaderLock lock(latch_);
  const uint32_t ts = tablespace_->tablespace_id();
  // Sorted keys route to children in key order, so each level's distinct
  // nodes come out sorted: node n of a level owns the keys from first[n] up
  // to first[n + 1].
  std::vector<Key128> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<buffer::PageKey> level = {{ts, root_page_}};
  std::vector<size_t> first = {0};
  for (uint32_t depth = 0; depth + 1 < height_; depth++) {
    if (level.size() > 1) NOFTL_RETURN_IF_ERROR(pool_->FetchPages(ctx, level));
    std::vector<buffer::PageKey> children;
    std::vector<size_t> children_first;
    for (size_t n = 0; n < level.size(); n++) {
      auto h = pool_->FixPage(ctx, level[n], /*create=*/false);
      if (!h.ok()) return h.status();
      Node node{h->data, tablespace_->page_size()};
      assert(!node.IsLeaf());
      const size_t end = n + 1 < level.size() ? first[n + 1] : sorted.size();
      for (size_t k = first[n]; k < end; k++) {
        const uint64_t child = node.ChildFor(sorted[k], nullptr);
        if (children.empty() || children.back().page_no != child) {
          children.push_back({ts, child});
          children_first.push_back(k);
        }
      }
      pool_->Unfix(*h, /*dirty=*/false);
    }
    level.swap(children);
    first.swap(children_first);
  }
  return pool_->SubmitFetch(ctx, level, ticket);
}

Status BTree::ScanRange(txn::TxnContext* ctx, Key128 from, Key128 to,
                        const std::function<bool(Key128, uint64_t)>& fn) {
  ReaderLock lock(latch_);
  // Submit-early/reap-late: the leaf reads go out now, the re-descent of
  // ScanFrom overlaps with them, and the first fixed leaf reaps the fetch.
  buffer::FetchTicket prefetch = 0;
  if (range_prefetch_) {
    NOFTL_RETURN_IF_ERROR(PrefetchLeaves(ctx, from, to, &prefetch));
  }
  Status scan = ScanFromLocked(ctx, from, [&](Key128 k, uint64_t v) {
    if (to < k) return false;
    return fn(k, v);
  });
  // An early-stopping scan may never touch the tail of the prefetched
  // leaves; reap them so no claim pins outlive the call.
  Status drain = pool_->WaitFetch(ctx, prefetch);
  return scan.ok() ? drain : scan;
}

Status BTree::Validate(txn::TxnContext* ctx) {
  ReaderLock lock(latch_);
  // Walk every leaf via the chain; check sortedness and count. Then check
  // that tree descent finds every leaf key.
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, Key128::Min(), nullptr, &leaf_page));

  uint64_t seen = 0;
  Key128 prev = Key128::Min();
  bool have_prev = false;
  uint64_t page_no = leaf_page;
  while (true) {
    auto h = pool_->FixPage(ctx, {tablespace_->tablespace_id(), page_no},
                            /*create=*/false);
    if (!h.ok()) return h.status();
    Node leaf{h->data, tablespace_->page_size()};
    if (!leaf.IsLeaf()) {
      pool_->Unfix(*h, false);
      return Status::Corruption("leaf chain reached internal node");
    }
    for (uint32_t i = 0; i < leaf.Count(); i++) {
      const Key128 k = leaf.KeyAt(i);
      if (have_prev && !(prev < k)) {
        pool_->Unfix(*h, false);
        return Status::Corruption("keys out of order in leaf chain");
      }
      prev = k;
      have_prev = true;
      seen++;
    }
    const uint64_t next = leaf.NextLeaf();
    pool_->Unfix(*h, /*dirty=*/false);
    if (next == 0) break;
    page_no = next - 1;
  }
  if (seen != entry_count_) {
    return Status::Corruption("entry count drift: chain has " +
                              std::to_string(seen) + ", expected " +
                              std::to_string(entry_count_));
  }
  return Status::OK();
}

}  // namespace noftl::index
