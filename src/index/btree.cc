#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"

namespace noftl::index {

using buffer::PageKey;

// Page-buffer view of a node; btree.h has the byte layout.
struct BTree::Node {
  char* data;
  uint32_t page_size;

  bool IsLeaf() const { return (DecodeFixed16(data + 2) & 1) != 0; }
  uint16_t Count() const { return DecodeFixed16(data + 4); }
  void SetCount(uint16_t n) { EncodeFixed16(data + 4, n); }
  uint16_t Hint() const { return DecodeFixed16(data + 6); }
  void SetHint(uint16_t pos) { EncodeFixed16(data + 6, pos); }
  uint64_t NextLeaf() const { return DecodeFixed64(data + 8); }  // +1 encoded
  void SetNextLeaf(uint64_t page_plus1) { EncodeFixed64(data + 8, page_plus1); }
  uint64_t LeftChild() const { return DecodeFixed64(data + 16); }
  void SetLeftChild(uint64_t page) { EncodeFixed64(data + 16, page); }
  bool HasMagic() const { return DecodeFixed16(data) == kMagic; }

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
    return ChildAt(idx);
  }

  /// Internal node: child i of Count() + 1 (child 0 is LeftChild()).
  uint64_t ChildAt(uint32_t i) const {
    return i == 0 ? LeftChild() : ValueAt(i - 1);
  }

  /// Internal node: drop child i and the separator that bounds it. Removing
  /// child 0 promotes child 1 to LeftChild(); its separator goes, and the
  /// node's own lower bound (held by its parent) still bounds that subtree.
  void RemoveChildAt(uint32_t i) {
    if (i == 0) {
      SetLeftChild(ValueAt(0));
      RemoveAt(0);
    } else {
      RemoveAt(i - 1);
    }
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
    leaf.SetHint(static_cast<uint16_t>(pos + 1));
    pool_->Unfix(*h, /*dirty=*/true);
    entry_count_++;
    return Status::OK();
  }

  // Split the leaf: the entries from `split` on move to a new right sibling.
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

  // An insert that continues the leaf's last one splits at the insertion
  // point, so a run leaves full leaves behind it; any other splits in the
  // middle.
  const uint32_t total = leaf.Count();
  const bool sequential = pos > 0 && pos == leaf.Hint();
  const uint32_t split = sequential ? pos : total / 2;
  for (uint32_t i = split; i < total; i++) {
    right.InsertAt(i - split, leaf.KeyAt(i), leaf.ValueAt(i));
  }
  leaf.SetCount(static_cast<uint16_t>(split));
  right.SetNextLeaf(leaf.NextLeaf());
  leaf.SetNextLeaf(*right_page + 1);

  // Place the new entry in its half, which keeps the hint; the other half's
  // is cleared. A run that reached the end of the leaf starts the right one.
  const bool to_left = right.Count() > 0 && key < right.KeyAt(0);
  Node& home = to_left ? leaf : right;
  Node& other = to_left ? right : leaf;
  const uint32_t at = home.LowerBound(key);
  home.InsertAt(at, key, value);
  home.SetHint(static_cast<uint16_t>(at + 1));
  other.SetHint(0);
  const Key128 sep = right.KeyAt(0);
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
  std::vector<PathEntry> path;
  uint64_t leaf_page = 0;
  NOFTL_RETURN_IF_ERROR(DescendToLeaf(ctx, key, &path, &leaf_page));
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
  leaf.SetHint(0);
  const bool emptied = leaf.Count() == 0;
  const uint64_t next = leaf.NextLeaf();
  pool_->Unfix(*h, /*dirty=*/true);
  entry_count_--;
  // The root leaf of an empty tree is the only node that stays empty.
  if (!emptied || path.empty()) return Status::OK();
  return FreeEmptyLeaf(ctx, path, leaf_page, next);
}

Result<uint64_t> BTree::PredecessorLeaf(txn::TxnContext* ctx,
                                        const std::vector<PathEntry>& path) {
  // The deepest ancestor the path left through a child other than child 0
  // has the predecessor in the subtree one child to the left: its
  // rightmost leaf.
  size_t level = path.size();
  while (level > 0 && path[level - 1].child_index == 0) level--;
  if (level == 0) return kNoPage;  // the tree's leftmost leaf
  level--;
  const uint32_t ts = tablespace_->tablespace_id();
  auto h = pool_->FixPage(ctx, {ts, path[level].page_no}, /*create=*/false);
  if (!h.ok()) return h.status();
  const Node branch{h->data, tablespace_->page_size()};
  uint64_t page_no = branch.ChildAt(path[level].child_index - 1);
  pool_->Unfix(*h, /*dirty=*/false);
  for (size_t depth = level + 1; depth < path.size(); depth++) {
    auto ch = pool_->FixPage(ctx, {ts, page_no}, /*create=*/false);
    if (!ch.ok()) return ch.status();
    const Node node{ch->data, tablespace_->page_size()};
    assert(!node.IsLeaf());
    page_no = node.ChildAt(node.Count());  // last child
    pool_->Unfix(*ch, /*dirty=*/false);
  }
  return page_no;
}

Status BTree::FreeEmptyLeaf(txn::TxnContext* ctx,
                            const std::vector<PathEntry>& path,
                            uint64_t leaf_page, uint64_t next_plus1) {
  const uint32_t ts = tablespace_->tablespace_id();
  // The leaf leaves its parent before it leaves the chain: if a page fix
  // fails in between, the tree keeps an unreachable empty leaf that scans
  // step over, never a reachable leaf that scans cannot see.
  auto pred = PredecessorLeaf(ctx, path);
  if (!pred.ok()) return pred.status();

  // 1. Remove its child slot; a parent left without children goes too, up
  // the path. The root always keeps two or more children (step 2), so the
  // climb stops at the root at the latest.
  std::vector<uint64_t> freed = {leaf_page};
  uint64_t only_child = kNoPage;  // set when the root is left with one child
  for (size_t level = path.size(); level-- > 0;) {
    auto h = pool_->FixPage(ctx, {ts, path[level].page_no}, /*create=*/false);
    if (!h.ok()) return h.status();
    Node node{h->data, tablespace_->page_size()};
    if (node.Count() == 0) {  // the removed subtree was its only child
      assert(level > 0);
      pool_->Unfix(*h, /*dirty=*/false);
      freed.push_back(path[level].page_no);
      continue;
    }
    node.RemoveChildAt(path[level].child_index);
    if (level == 0 && node.Count() == 0) only_child = node.LeftChild();
    pool_->Unfix(*h, /*dirty=*/true);
    break;
  }

  // 2. A root left with one child hands the root to that child, for as
  // long as the new root has one child too.
  while (only_child != kNoPage) {
    freed.push_back(root_page_);
    root_page_ = only_child;
    height_--;
    only_child = kNoPage;
    if (height_ == 1) break;
    auto h = pool_->FixPage(ctx, {ts, root_page_}, /*create=*/false);
    if (!h.ok()) return h.status();
    const Node root{h->data, tablespace_->page_size()};
    if (root.Count() == 0) only_child = root.LeftChild();
    pool_->Unfix(*h, /*dirty=*/false);
  }

  // 3. Unlink the leaf from the chain.
  if (*pred != kNoPage) {
    auto h = pool_->FixPage(ctx, {ts, *pred}, /*create=*/false);
    if (!h.ok()) return h.status();
    Node prev{h->data, tablespace_->page_size()};
    assert(prev.IsLeaf() && prev.NextLeaf() == leaf_page + 1);
    prev.SetNextLeaf(next_plus1);
    pool_->Unfix(*h, /*dirty=*/true);
  }

  // 4. Release the unlinked pages. The frames go without a write-back and
  // the trim leaves GC nothing to copy.
  for (uint64_t page_no : freed) {
    pool_->Discard({ts, page_no});
    NOFTL_RETURN_IF_ERROR(tablespace_->FreePage(page_no));
    auto it = std::find(pages_.begin(), pages_.end(), page_no);
    assert(it != pages_.end());
    *it = pages_.back();
    pages_.pop_back();
  }
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
    keys.push_back({tablespace_->tablespace_id(), node.ChildAt(idx)});
  }
  pool_->Unfix(*h, /*dirty=*/false);
  return pool_->SubmitFetch(ctx, keys, ticket);
}

Status BTree::SubmitLeafFetch(txn::TxnContext* ctx,
                              const std::vector<Key128>& keys,
                              buffer::FetchTicket* ticket) {
  return SubmitLeaves(ctx, keys, {}, ticket);
}

Status BTree::SubmitScanStartFetch(txn::TxnContext* ctx,
                                   const std::vector<Key128>& from,
                                   const std::vector<Key128>& to,
                                   buffer::FetchTicket* ticket) {
  assert(from.size() == to.size());
  return SubmitLeaves(ctx, from, to, ticket);
}

Status BTree::SubmitLeaves(txn::TxnContext* ctx,
                           const std::vector<Key128>& keys,
                           const std::vector<Key128>& to,
                           buffer::FetchTicket* ticket) {
  if (keys.empty()) return pool_->SubmitFetch(ctx, {}, ticket);
  ReaderLock lock(latch_);
  const uint32_t ts = tablespace_->tablespace_id();
  // Sorted keys route to children in key order, so each level's distinct
  // nodes come out sorted: node n of a level owns the keys from first[n] up
  // to first[n + 1].
  std::vector<size_t> sorted(keys.size());
  for (size_t k = 0; k < sorted.size(); k++) sorted[k] = k;
  std::sort(sorted.begin(), sorted.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<buffer::PageKey> level = {{ts, root_page_}};
  std::vector<size_t> first = {0};
  for (uint32_t depth = 0; depth + 1 < height_; depth++) {
    if (level.size() > 1) NOFTL_RETURN_IF_ERROR(pool_->FetchPages(ctx, level));
    const bool leaf_parents = depth + 2 == height_;
    std::vector<buffer::PageKey> children;
    std::vector<size_t> children_first;
    auto add_child = [&](uint64_t child, size_t k) {
      // A scan's sibling leaf may precede the next key's routed leaf.
      if (!children.empty() && children.back().page_no == child) return;
      if (leaf_parents && children.size() > 1 &&
          children[children.size() - 2].page_no == child) {
        return;
      }
      children.push_back({ts, child});
      children_first.push_back(k);
    };
    for (size_t n = 0; n < level.size(); n++) {
      auto h = pool_->FixPage(ctx, level[n], /*create=*/false);
      if (!h.ok()) return h.status();
      Node node{h->data, tablespace_->page_size()};
      assert(!node.IsLeaf());
      const size_t end = n + 1 < level.size() ? first[n + 1] : sorted.size();
      for (size_t k = first[n]; k < end; k++) {
        uint32_t idx = 0;
        add_child(node.ChildFor(keys[sorted[k]], &idx), k);
        if (leaf_parents && !to.empty() && idx < node.Count() &&
            !(to[sorted[k]] < node.KeyAt(idx))) {
          add_child(node.ChildAt(idx + 1), k);
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

Status BTree::Validate(txn::TxnContext* ctx, uint64_t* leaf_count) {
  ReaderLock lock(latch_);
  const uint32_t ts = tablespace_->tablespace_id();
  const std::unordered_set<uint64_t> owned(pages_.begin(), pages_.end());
  if (owned.size() != pages_.size()) {
    return Status::Corruption("page list names a page twice");
  }

  // Depth-first over the whole tree, children in key order. Each node must
  // be one of this tree's pages, reached once; leaves sit at depth
  // height - 1; every key lies in [lo, hi) set by the separators above it.
  struct Visit {
    uint64_t page_no;
    uint32_t depth;
    Key128 lo;
    std::optional<Key128> hi;  ///< none = unbounded
  };
  std::vector<Visit> stack = {{root_page_, 0, Key128::Min(), std::nullopt}};
  std::unordered_set<uint64_t> reached;
  std::vector<uint64_t> leaves;  // in key order
  uint64_t entries = 0;
  auto corrupt = [](uint64_t page_no, const std::string& what) {
    return Status::Corruption("node " + std::to_string(page_no) + ": " + what);
  };
  while (!stack.empty()) {
    const Visit v = stack.back();
    stack.pop_back();
    if (owned.count(v.page_no) == 0) {
      return corrupt(v.page_no, "child pointer to a page the tree lacks");
    }
    if (!reached.insert(v.page_no).second) {
      return corrupt(v.page_no, "reached twice");
    }
    auto h = pool_->FixPage(ctx, {ts, v.page_no}, /*create=*/false);
    if (!h.ok()) return h.status();
    const Node node{h->data, tablespace_->page_size()};
    Status s;
    const bool leaf_depth = v.depth + 1 == height_;
    const uint32_t n = node.Count();
    if (!node.HasMagic()) {
      s = corrupt(v.page_no, "bad magic");
    } else if (node.IsLeaf() != leaf_depth) {
      s = corrupt(v.page_no, node.IsLeaf() ? "leaf above the leaf level"
                                           : "internal node at the leaf level");
    } else if (n > MaxEntries()) {
      s = corrupt(v.page_no, "count exceeds capacity");
    } else if (node.IsLeaf() && n == 0 && height_ > 1) {
      s = corrupt(v.page_no, "empty leaf left in the tree");
    } else if (!node.IsLeaf() && n == 0 && v.depth == 0) {
      s = corrupt(v.page_no, "root with one child was not collapsed");
    }
    for (uint32_t i = 0; s.ok() && i < n; i++) {
      const Key128 k = node.KeyAt(i);
      if (k < v.lo || (v.hi && !(k < *v.hi)) ||
          (i > 0 && !(node.KeyAt(i - 1) < k))) {
        s = corrupt(v.page_no, "key out of order or outside its separators");
      }
    }
    if (s.ok() && node.IsLeaf()) {
      leaves.push_back(v.page_no);
      entries += n;
    } else if (s.ok()) {
      // Push right to left so the leftmost child is visited first.
      for (uint32_t i = n + 1; i-- > 0;) {
        const Key128 lo = i == 0 ? v.lo : node.KeyAt(i - 1);
        std::optional<Key128> hi = i == n ? v.hi : node.KeyAt(i);
        stack.push_back({node.ChildAt(i), v.depth + 1, lo, hi});
      }
    }
    pool_->Unfix(*h, /*dirty=*/false);
    NOFTL_RETURN_IF_ERROR(s);
  }
  if (reached.size() != pages_.size()) {
    return Status::Corruption(
        "page count drift: " + std::to_string(pages_.size()) +
        " pages held, " + std::to_string(reached.size()) + " reachable");
  }
  if (entries != entry_count_) {
    return Status::Corruption("entry count drift: tree has " +
                              std::to_string(entries) + ", expected " +
                              std::to_string(entry_count_));
  }

  // The leaf chain must visit exactly the leaves descent reached, in order.
  uint64_t page_no = leaves.front();
  for (size_t i = 0;; i++) {
    if (i == leaves.size() || page_no != leaves[i]) {
      return Status::Corruption("leaf chain diverges from the tree at step " +
                                std::to_string(i));
    }
    auto h = pool_->FixPage(ctx, {ts, page_no}, /*create=*/false);
    if (!h.ok()) return h.status();
    const uint64_t next = Node{h->data, tablespace_->page_size()}.NextLeaf();
    pool_->Unfix(*h, /*dirty=*/false);
    if (next == 0) {
      if (i + 1 != leaves.size()) {
        return Status::Corruption("leaf chain ends early at step " +
                                  std::to_string(i));
      }
      break;
    }
    page_no = next - 1;
  }
  if (leaf_count != nullptr) *leaf_count = leaves.size();
  return Status::OK();
}

}  // namespace noftl::index
