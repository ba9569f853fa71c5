#include "src/engine/btree.h"

#include <cassert>
#include <cstring>
#include <iterator>

namespace aurora::engine {

std::string EncodeU64Value(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  return std::string(buf, 8);
}

Result<uint64_t> DecodeU64Value(const std::string& encoded) {
  if (encoded.size() != 8) return Status::Corruption("bad u64 value");
  uint64_t v;
  std::memcpy(&v, encoded.data(), 8);
  return v;
}

std::vector<StagedOp> BTree::BootstrapOps(
    BlockId root_block, const std::vector<uint64_t>& alloc_cursors) {
  std::vector<StagedOp> ops;
  // Meta page.
  {
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kMeta;
    ops.push_back({kMetaBlock, format});
    storage::PageOp root;
    root.type = storage::PageOpType::kInsert;
    root.key = kMetaRootKey;
    root.value = EncodeU64Value(root_block);
    ops.push_back({kMetaBlock, root});
    for (size_t pg = 0; pg < alloc_cursors.size(); ++pg) {
      storage::PageOp cursor;
      cursor.type = storage::PageOpType::kInsert;
      cursor.key = AllocCursorKey(static_cast<ProtectionGroupId>(pg));
      cursor.value = EncodeU64Value(alloc_cursors[pg]);
      ops.push_back({kMetaBlock, cursor});
    }
  }
  // Root leaf.
  {
    storage::PageOp format;
    format.type = storage::PageOpType::kFormat;
    format.page_type = storage::PageType::kLeaf;
    format.level = 0;
    ops.push_back({root_block, format});
  }
  return ops;
}

Result<BlockId> BTree::ChildFor(const storage::Page& page,
                                const std::string& key) {
  if (page.entries.empty()) {
    return Status::Corruption("internal page with no routers");
  }
  auto it = page.entries.upper_bound(key);
  if (it == page.entries.begin()) {
    return Status::Corruption("key below leftmost router");
  }
  --it;
  return DecodeU64Value(it->second);
}

void BTree::FindPath(const std::string& key,
                     std::function<void(Result<std::vector<BlockId>>)> cb) {
  fetcher_(kMetaBlock, [this, key, cb = std::move(cb)](
                           Result<storage::Page*> meta) {
    if (!meta.ok()) {
      cb(meta.status());
      return;
    }
    auto root_it = (*meta)->entries.find(kMetaRootKey);
    if (root_it == (*meta)->entries.end()) {
      cb(Status::Corruption("meta page missing root pointer"));
      return;
    }
    auto root = DecodeU64Value(root_it->second);
    if (!root.ok()) {
      cb(root.status());
      return;
    }
    DescendFrom(*root, key, {}, std::move(cb), 64);
  });
}

void BTree::DescendFrom(BlockId block, std::string key,
                        std::vector<BlockId> path,
                        std::function<void(Result<std::vector<BlockId>>)> cb,
                        int depth_budget) {
  if (depth_budget <= 0) {
    cb(Status::Internal("descent depth exceeded (corrupt tree?)"));
    return;
  }
  path.push_back(block);
  fetcher_(block, [this, key = std::move(key), path = std::move(path),
                   cb = std::move(cb),
                   depth_budget](Result<storage::Page*> page) mutable {
    if (!page.ok()) {
      cb(page.status());
      return;
    }
    storage::Page* p = *page;
    if (p->type == storage::PageType::kLeaf) {
      cb(std::move(path));
      return;
    }
    if (p->type != storage::PageType::kInternal) {
      cb(Status::Corruption("non-tree page in descent"));
      return;
    }
    auto child = ChildFor(*p, key);
    if (!child.ok()) {
      cb(child.status());
      return;
    }
    DescendFrom(*child, std::move(key), std::move(path), std::move(cb),
                depth_budget - 1);
  });
}

Result<std::vector<BlockId>> BTree::FindPathSync(
    const std::string& key) const {
  storage::Page* meta = cache_(kMetaBlock);
  if (meta == nullptr) return Status::Aborted("retry: meta not cached");
  auto root_it = meta->entries.find(kMetaRootKey);
  if (root_it == meta->entries.end()) {
    return Status::Corruption("meta page missing root pointer");
  }
  auto block = DecodeU64Value(root_it->second);
  if (!block.ok()) return block.status();
  std::vector<BlockId> path;
  for (int depth = 0; depth < 64; ++depth) {
    path.push_back(*block);
    storage::Page* page = cache_(*block);
    if (page == nullptr) return Status::Aborted("retry: page not cached");
    if (page->type == storage::PageType::kLeaf) return path;
    if (page->type != storage::PageType::kInternal) {
      return Status::Corruption("non-tree page in descent");
    }
    auto child = ChildFor(*page, key);
    if (!child.ok()) return child.status();
    block = child;
  }
  return Status::Internal("descent depth exceeded (corrupt tree?)");
}

namespace {

storage::PageOp InsertOp(std::string key, std::string value) {
  storage::PageOp op;
  op.type = storage::PageOpType::kInsert;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

/// A page split's outcome: the router (pivot key -> new right page) the
/// parent level must add.
struct Split {
  std::string pivot;
  BlockId right = kInvalidBlock;
};

/// Stages the split of full page `node` (leaf or internal) to admit
/// `key` -> `value`. An append split pivots at `key`, so nothing moves.
Result<Split> SplitNode(const storage::Page& node, const std::string& key,
                        const std::string& value, bool append,
                        const BTree::BlockAllocator& alloc,
                        std::vector<StagedOp>* ops) {
  // Pivot: the middle of the merged key list, or the new key itself for
  // an append split (nothing moves; the left page stays full).
  const auto& entries = node.entries;
  const size_t pos = entries.lower_bound(key) - entries.begin();
  const size_t mid = (entries.size() + 1) / 2;
  std::string pivot = key;
  if (!append && mid != pos) {
    pivot = entries.begin()[mid < pos ? mid : mid - 1].first;
  }
  const bool key_moves = key >= pivot;
  const BlockId right = alloc(ops);
  if (right == kInvalidBlock) {
    return Status::OutOfRange("volume full: grow the volume to continue");
  }
  // One format record creates the right page whole: the entries >= pivot
  // (the new one included if it belongs right) and, for a leaf, its links.
  storage::PageOp format;
  format.type = storage::PageOpType::kFormat;
  format.page_type = node.type;
  format.level = node.level;
  if (node.type == storage::PageType::kLeaf) {
    format.next = node.next;
    format.prev = node.id;
  }
  const auto moved = entries.lower_bound(pivot);
  format.entries.assign(moved, entries.end());
  if (key_moves) {
    const auto at = pos - static_cast<size_t>(moved - entries.begin());
    format.entries.emplace(format.entries.begin() + at, key, value);
  }
  ops->push_back({right, std::move(format)});
  if (!key_moves) ops->push_back({node.id, InsertOp(key, value)});
  if (moved != entries.end()) {
    storage::PageOp truncate;
    truncate.type = storage::PageOpType::kTruncateFrom;
    truncate.key = pivot;
    ops->push_back({node.id, truncate});
  }
  if (node.type == storage::PageType::kLeaf) {
    storage::PageOp links;
    links.type = storage::PageOpType::kSetLinks;
    links.next = right;
    links.prev = node.prev;
    ops->push_back({node.id, links});
  }
  return Split{pivot, right};
}

}  // namespace

Result<std::vector<StagedOp>> BTree::PlanInsert(
    const std::vector<BlockId>& path, const std::string& key,
    const std::string& value, const BlockAllocator& alloc) const {
  if (path.empty()) return Status::InvalidArgument("empty path");
  std::vector<StagedOp> ops;

  storage::Page* leaf = cache_(path.back());
  if (leaf == nullptr || leaf->type != storage::PageType::kLeaf) {
    return Status::Aborted("retry: leaf not cached or path stale");
  }
  const bool update_in_place = leaf->entries.contains(key);
  if (update_in_place || leaf->entries.size() + 1 <= options_.max_entries) {
    ops.push_back({leaf->id, InsertOp(key, value)});
    return ops;
  }

  // Split cascade. An insert past the last key of the rightmost leaf is an
  // append split all the way up: every page on the path is the rightmost
  // of its level, and the new router is past its last key too.
  const bool append = leaf->next == kInvalidBlock &&
                      (leaf->entries.empty() ||
                       key > std::prev(leaf->entries.end())->first);
  auto split = SplitNode(*leaf, key, value, append, alloc, &ops);
  if (!split.ok()) return split.status();
  const storage::Page* split_node = leaf;

  // Walk up the path inserting routers, splitting internals as needed.
  for (size_t i = path.size() - 1; i-- > 0;) {
    storage::Page* node = cache_(path[i]);
    if (node == nullptr || node->type != storage::PageType::kInternal) {
      return Status::Aborted("retry: internal page not cached");
    }
    const std::string router_value = EncodeU64Value(split->right);
    if (node->entries.size() + 1 <= options_.max_entries) {
      ops.push_back({node->id, InsertOp(split->pivot, router_value)});
      return ops;
    }
    split = SplitNode(*node, split->pivot, router_value, append, alloc, &ops);
    if (!split.ok()) return split.status();
    split_node = node;
  }
  // The root split: a new root, formatted with its two routers.
  const BlockId new_root = alloc(&ops);
  if (new_root == kInvalidBlock) {
    return Status::OutOfRange("volume full: grow the volume to continue");
  }
  storage::PageOp root_format;
  root_format.type = storage::PageOpType::kFormat;
  root_format.page_type = storage::PageType::kInternal;
  root_format.level = static_cast<uint16_t>(split_node->level + 1);
  root_format.entries = {{"", EncodeU64Value(split_node->id)},  // leftmost
                         {split->pivot, EncodeU64Value(split->right)}};
  ops.push_back({new_root, std::move(root_format)});
  ops.push_back({kMetaBlock, InsertOp(kMetaRootKey, EncodeU64Value(new_root))});
  return ops;
}

void BTree::GetEntry(const std::string& key,
                     std::function<void(Result<std::string>)> cb) {
  FindPath(key, [this, key, cb = std::move(cb)](
                    Result<std::vector<BlockId>> path) {
    if (!path.ok()) {
      cb(path.status());
      return;
    }
    storage::Page* leaf = cache_(path->back());
    if (leaf == nullptr) {
      cb(Status::Aborted("retry: leaf evicted"));
      return;
    }
    auto it = leaf->entries.find(key);
    if (it == leaf->entries.end()) {
      cb(Status::NotFound("key absent"));
      return;
    }
    cb(it->second);
  });
}

void BTree::ScanEntries(
    const std::string& lo, const std::string& hi, size_t limit,
    std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  FindPath(lo, [this, lo, hi, limit, cb = std::move(cb)](
                   Result<std::vector<BlockId>> path) {
    if (!path.ok()) {
      cb(path.status());
      return;
    }
    ScanStep(path->back(), lo, hi, limit, {}, std::move(cb));
  });
}

void BTree::ScanStep(
    BlockId leaf_block, std::string lo, std::string hi, size_t limit,
    std::vector<std::pair<std::string, std::string>> acc,
    std::function<void(Result<std::vector<std::pair<std::string, std::string>>>)>
        cb) {
  fetcher_(leaf_block, [this, lo = std::move(lo), hi = std::move(hi), limit,
                        acc = std::move(acc),
                        cb = std::move(cb)](Result<storage::Page*> page) mutable {
    if (!page.ok()) {
      cb(page.status());
      return;
    }
    storage::Page* leaf = *page;
    for (auto it = leaf->entries.lower_bound(lo);
         it != leaf->entries.end(); ++it) {
      if (it->first > hi || acc.size() >= limit) {
        cb(std::move(acc));
        return;
      }
      acc.emplace_back(it->first, it->second);
    }
    if (leaf->next == kInvalidBlock || acc.size() >= limit) {
      cb(std::move(acc));
      return;
    }
    ScanStep(leaf->next, std::move(lo), std::move(hi), limit, std::move(acc),
             std::move(cb));
  });
}

}  // namespace aurora::engine
