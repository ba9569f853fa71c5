// Data block (page) model and redo page operations.
//
// §2.2: "No data blocks are written from the database instance... redo log
// application code is run within the storage nodes, materializing blocks in
// background or on-demand to satisfy a read request." This header defines
// the page structure shared by the storage nodes (materialization), the
// writer's buffer cache, and replicas (cache application) — all three apply
// the SAME PageOp payloads, which is what makes log application idempotent
// and location-independent.
//
// Pages are B+-tree nodes: sorted key→value entries plus header fields.
// Values are opaque to storage; the transaction layer encodes row versions
// (txn id + undo pointer) inside them.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace aurora::storage {

/// Sorted key→value entry set with structurally-shared storage.
///
/// A storage read above a block's folded page copies that page and applies
/// the block's pending redo (MVCC reads, §3.1), and replicas and the
/// writer's cache copy pages too. With a plain std::map every copy
/// deep-copies every entry. PageEntries keeps entries as refcounted
/// immutable (key, value) pairs in a sorted vector: copying a page copies
/// N pointers, and applying one PageOp
/// replaces exactly one pointer, so adjacent versions share all unchanged
/// entries. The map-like read interface (find/at/contains/lower_bound/
/// upper_bound/ordered iteration) is preserved so the B-tree and the
/// buffer cache are representation-agnostic; mutation happens only through
/// ApplyPageOp's vocabulary (Upsert/Erase/TruncateFrom/clear).
class PageEntries {
 public:
  using Entry = std::pair<std::string, std::string>;

 private:
  using Ptr = std::shared_ptr<const Entry>;
  std::vector<Ptr> entries_;

 public:
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    explicit const_iterator(const Ptr* p) : p_(p) {}

    reference operator*() const { return **p_; }
    pointer operator->() const { return p_->get(); }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator out = *this;
      ++p_;
      return out;
    }
    const_iterator& operator--() {
      --p_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator out = *this;
      --p_;
      return out;
    }
    const_iterator& operator+=(difference_type n) {
      p_ += n;
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      p_ -= n;
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const_iterator a, const_iterator b) {
      return a.p_ - b.p_;
    }
    reference operator[](difference_type n) const { return **(p_ + n); }
    friend auto operator<=>(const const_iterator&,
                            const const_iterator&) = default;

   private:
    const Ptr* p_ = nullptr;
  };
  using iterator = const_iterator;

  const_iterator begin() const { return const_iterator(entries_.data()); }
  const_iterator end() const {
    return const_iterator(entries_.data() + entries_.size());
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  const_iterator lower_bound(std::string_view key) const {
    return const_iterator(entries_.data() + LowerBoundIndex(key));
  }
  const_iterator upper_bound(std::string_view key) const {
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), key,
        [](std::string_view k, const Ptr& e) { return k < e->first; });
    return const_iterator(entries_.data() + (it - entries_.begin()));
  }
  const_iterator find(std::string_view key) const {
    const size_t i = LowerBoundIndex(key);
    if (i < entries_.size() && entries_[i]->first == key) {
      return const_iterator(entries_.data() + i);
    }
    return end();
  }
  bool contains(std::string_view key) const { return find(key) != end(); }
  const std::string& at(std::string_view key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("PageEntries::at");
    return it->second;
  }

  /// Inserts or replaces one entry. Replacement swaps a single pointer;
  /// versions sharing the old entry are untouched.
  void Upsert(std::string key, std::string value) {
    const size_t i = LowerBoundIndex(key);
    auto entry = std::make_shared<const Entry>(std::move(key),
                                               std::move(value));
    if (i < entries_.size() && entries_[i]->first == entry->first) {
      entries_[i] = std::move(entry);
    } else {
      entries_.insert(entries_.begin() + i, std::move(entry));
    }
  }

  /// Removes one entry (no-op if absent; idempotent application).
  void Erase(std::string_view key) {
    const size_t i = LowerBoundIndex(key);
    if (i < entries_.size() && entries_[i]->first == key) {
      entries_.erase(entries_.begin() + i);
    }
  }

  /// Removes all entries with key >= pivot (split: donor side).
  void TruncateFrom(std::string_view pivot) {
    entries_.resize(LowerBoundIndex(pivot));
  }

  /// Content equality, with a pointer fast path for shared entries.
  bool operator==(const PageEntries& other) const {
    if (entries_.size() != other.entries_.size()) return false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Ptr& a = entries_[i];
      const Ptr& b = other.entries_[i];
      if (a != b && *a != *b) return false;
    }
    return true;
  }

 private:
  size_t LowerBoundIndex(std::string_view key) const {
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Ptr& e, std::string_view k) { return e->first < k; });
    return static_cast<size_t>(it - entries_.begin());
  }
};

/// What role a page plays in the access method.
enum class PageType : uint8_t {
  kFree = 0,
  kLeaf = 1,
  kInternal = 2,
  kUndo = 3,
  kMeta = 4,
};

/// One materialized data block version. `page_lsn` is the LSN of the last
/// redo record applied; the block chain guarantees records apply in order.
struct Page {
  BlockId id = kInvalidBlock;
  Lsn page_lsn = kInvalidLsn;
  PageType type = PageType::kFree;
  uint16_t level = 0;              // B-tree level (0 = leaf)
  BlockId next = kInvalidBlock;    // right-sibling link for leaf scans
  BlockId prev = kInvalidBlock;    // left-sibling link
  PageEntries entries;

  bool operator==(const Page&) const = default;

  uint64_t SizeBytes() const;
  std::string ToString() const;
};

/// The kinds of physical page changes carried in redo payloads.
enum class PageOpType : uint8_t {
  /// (Re)formats the page: sets type, level and sibling links, and replaces
  /// the entries with the op's initial entries (none: an empty page).
  kFormat = 0,
  /// Upserts one entry.
  kInsert = 1,
  /// Removes one entry (no-op if absent; idempotent application).
  kErase = 2,
  /// Sets the sibling links.
  kSetLinks = 3,
  /// Removes all entries with key >= pivot (split: donor side).
  kTruncateFrom = 4,
};

/// A single physical operation on one page. Encoded into
/// RedoRecord::payload; applied identically by storage nodes, the writer's
/// cache, and replica caches. Each op type encodes only the fields its
/// replay reads; the others decode to their defaults.
struct PageOp {
  PageOpType type = PageOpType::kInsert;
  PageType page_type = PageType::kLeaf;  // kFormat
  uint16_t level = 0;                    // kFormat
  std::string key;                       // kInsert/kErase/kTruncateFrom
  std::string value;                     // kInsert
  BlockId next = kInvalidBlock;          // kFormat/kSetLinks
  BlockId prev = kInvalidBlock;          // kFormat/kSetLinks
  /// kFormat: the new page's initial entries, in ascending key order (a
  /// split's new page is one record, not one insert per moved entry).
  std::vector<PageEntries::Entry> entries;

  bool operator==(const PageOp&) const = default;
};

/// Serializes a PageOp into a redo payload.
std::string EncodePageOp(const PageOp& op);

/// Decodes a redo payload; Corruption on malformed input.
Result<PageOp> DecodePageOp(std::string_view payload);

/// Applies `op` to `page` and stamps `lsn` as the new page_lsn. The caller
/// is responsible for ordering (prev_lsn_block chain); application itself
/// is deterministic and total.
Status ApplyPageOp(Page* page, const PageOp& op, Lsn lsn);

/// Convenience: decode + apply a raw redo payload.
Status ApplyRedoPayload(Page* page, std::string_view payload, Lsn lsn);

}  // namespace aurora::storage
