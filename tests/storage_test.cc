// Unit tests for the storage service: page ops, segment stores (SCL,
// coalescing, on-demand materialization, MVCC version retention/GC,
// truncation, scrub, hydration), the disk model, the object store, and the
// storage node's group-committed update queue.

#include <gtest/gtest.h>

#include "src/core/cluster.h"
#include "src/log/record.h"
#include "src/quorum/membership.h"
#include "src/sim/network.h"
#include "src/storage/disk.h"
#include "src/storage/object_store.h"
#include "src/storage/page.h"
#include "src/storage/segment_store.h"
#include "src/storage/storage_node.h"

namespace aurora::storage {
namespace {

quorum::PgConfig TestConfig() {
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  return quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46,
                                  members);
}

SegmentStore MakeStore(bool is_full = true, bool hydrated = true) {
  quorum::SegmentInfo info{0, 100, 0, is_full};
  return SegmentStore(info, 0, TestConfig(), /*volume_epoch=*/1, hydrated);
}

log::RedoRecord DataRecord(Lsn lsn, Lsn prev_seg, BlockId block,
                           Lsn prev_block, const PageOp& op) {
  log::RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_volume = lsn - 1;
  rec.prev_lsn_segment = prev_seg;
  rec.prev_lsn_block = prev_block;
  rec.pg = 0;
  rec.block = block;
  rec.txn = 1;
  rec.payload = EncodePageOp(op);
  return rec;
}

PageOp FormatOp(PageType type = PageType::kLeaf) {
  PageOp op;
  op.type = PageOpType::kFormat;
  op.page_type = type;
  return op;
}

PageOp InsertOp(std::string key, std::string value) {
  PageOp op;
  op.type = PageOpType::kInsert;
  op.key = std::move(key);
  op.value = std::move(value);
  return op;
}

// ---------------------------------------------------------------------- //
// Page ops

// Each op type encodes only the fields its replay reads: a round trip
// returns those exactly, and every field the type does not carry decodes
// to its default — even when the encoded op had it set.
PageOp RoundTrip(const PageOp& op) {
  auto decoded = DecodePageOp(EncodePageOp(op));
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? *decoded : PageOp{};
}

/// An op of `type` with every field set to a non-default value.
PageOp AllFieldsSet(PageOpType type) {
  PageOp op;
  op.type = type;
  op.page_type = PageType::kInternal;
  op.level = 3;
  op.key = "piv";
  op.value = std::string("\x00\x01", 2);
  op.next = 42;
  op.prev = 41;
  op.entries = {{"a", "1"}, {"b", std::string("\x00", 1)}, {"c", ""}};
  return op;
}

TEST(PageOps, CodecRoundTripInsert) {
  const PageOp decoded = RoundTrip(AllFieldsSet(PageOpType::kInsert));
  PageOp want;
  want.type = PageOpType::kInsert;
  want.key = "piv";
  want.value = std::string("\x00\x01", 2);
  EXPECT_EQ(decoded, want);
}

TEST(PageOps, CodecRoundTripEraseAndTruncate) {
  for (PageOpType type : {PageOpType::kErase, PageOpType::kTruncateFrom}) {
    const PageOp decoded = RoundTrip(AllFieldsSet(type));
    PageOp want;
    want.type = type;
    want.key = "piv";
    EXPECT_EQ(decoded, want) << static_cast<int>(type);
  }
}

TEST(PageOps, CodecRoundTripSetLinks) {
  const PageOp decoded = RoundTrip(AllFieldsSet(PageOpType::kSetLinks));
  PageOp want;
  want.type = PageOpType::kSetLinks;
  want.next = 42;
  want.prev = 41;
  EXPECT_EQ(decoded, want);
}

TEST(PageOps, CodecRoundTripFormat) {
  // With links and three entries (a split's new page)...
  const PageOp decoded = RoundTrip(AllFieldsSet(PageOpType::kFormat));
  PageOp want;
  want.type = PageOpType::kFormat;
  want.page_type = PageType::kInternal;
  want.level = 3;
  want.next = 42;
  want.prev = 41;
  want.entries = {{"a", "1"}, {"b", std::string("\x00", 1)}, {"c", ""}};
  EXPECT_EQ(decoded, want);
  // ...and with neither (a plain empty page).
  const PageOp bare = RoundTrip(FormatOp(PageType::kUndo));
  EXPECT_EQ(bare, FormatOp(PageType::kUndo));
  EXPECT_TRUE(bare.entries.empty());
  EXPECT_EQ(bare.next, kInvalidBlock);
  EXPECT_EQ(bare.prev, kInvalidBlock);
}

TEST(PageOps, FormatWithEntriesAndLinksBuildsThePage) {
  Page page;
  ASSERT_TRUE(ApplyPageOp(&page, InsertOp("stale", "x"), 1).ok());
  ASSERT_TRUE(ApplyPageOp(&page, AllFieldsSet(PageOpType::kFormat), 2).ok());
  EXPECT_EQ(page.type, PageType::kInternal);
  EXPECT_EQ(page.level, 3);
  EXPECT_EQ(page.next, 42u);
  EXPECT_EQ(page.prev, 41u);
  ASSERT_EQ(page.entries.size(), 3u);
  EXPECT_FALSE(page.entries.contains("stale"));
  EXPECT_EQ(page.entries.at("a"), "1");
  EXPECT_EQ(page.page_lsn, 2u);
}

TEST(PageOps, DecodeRejectsGarbage) {
  EXPECT_TRUE(DecodePageOp("").status().IsCorruption());
  EXPECT_TRUE(DecodePageOp("zz").status().IsCorruption());
  std::string bad = EncodePageOp(InsertOp("k", "v"));
  bad.resize(bad.size() - 1);
  EXPECT_TRUE(DecodePageOp(bad).status().IsCorruption());
  // A format whose entry list is cut short.
  std::string short_format = EncodePageOp(AllFieldsSet(PageOpType::kFormat));
  short_format.resize(short_format.size() - 3);
  EXPECT_TRUE(DecodePageOp(short_format).status().IsCorruption());
  // A format with an out-of-range page type (byte 1, after the op type).
  std::string bad_type = EncodePageOp(FormatOp());
  bad_type[1] = static_cast<char>(static_cast<uint8_t>(PageType::kMeta) + 1);
  EXPECT_TRUE(DecodePageOp(bad_type).status().IsCorruption());
  // Trailing bytes after a complete set-links op.
  std::string trailing = EncodePageOp(AllFieldsSet(PageOpType::kSetLinks));
  trailing.push_back('\0');
  EXPECT_TRUE(DecodePageOp(trailing).status().IsCorruption());
}

TEST(PageOps, ApplySequence) {
  Page page;
  page.id = 9;
  ASSERT_TRUE(ApplyPageOp(&page, FormatOp(), 1).ok());
  EXPECT_EQ(page.type, PageType::kLeaf);
  ASSERT_TRUE(ApplyPageOp(&page, InsertOp("b", "2"), 2).ok());
  ASSERT_TRUE(ApplyPageOp(&page, InsertOp("a", "1"), 3).ok());
  EXPECT_EQ(page.entries.size(), 2u);
  EXPECT_EQ(page.page_lsn, 3u);

  PageOp erase;
  erase.type = PageOpType::kErase;
  erase.key = "a";
  ASSERT_TRUE(ApplyPageOp(&page, erase, 4).ok());
  EXPECT_FALSE(page.entries.contains("a"));

  PageOp truncate;
  truncate.type = PageOpType::kTruncateFrom;
  truncate.key = "b";
  ASSERT_TRUE(ApplyPageOp(&page, truncate, 5).ok());
  EXPECT_TRUE(page.entries.empty());
}

TEST(PageOps, CopiedVersionsShareUntouchedEntries) {
  // Coalescing materializes one page version per applied record; the COW
  // entry store must make that copy O(entries) pointer work, with every
  // unmodified entry physically shared between adjacent versions.
  Page v1;
  ASSERT_TRUE(ApplyPageOp(&v1, FormatOp(), 1).ok());
  ASSERT_TRUE(ApplyPageOp(&v1, InsertOp("a", "1"), 2).ok());
  ASSERT_TRUE(ApplyPageOp(&v1, InsertOp("b", "2"), 3).ok());
  ASSERT_TRUE(ApplyPageOp(&v1, InsertOp("c", "3"), 4).ok());

  Page v2 = v1;
  ASSERT_TRUE(ApplyPageOp(&v2, InsertOp("b", "new"), 5).ok());

  // Same Entry objects for untouched keys (address equality), a fresh one
  // for the overwritten key, and the old version is unperturbed.
  EXPECT_EQ(&*v1.entries.find("a"), &*v2.entries.find("a"));
  EXPECT_EQ(&*v1.entries.find("c"), &*v2.entries.find("c"));
  EXPECT_NE(&*v1.entries.find("b"), &*v2.entries.find("b"));
  EXPECT_EQ(v1.entries.at("b"), "2");
  EXPECT_EQ(v2.entries.at("b"), "new");

  // Content equality still behaves like a value type.
  Page v3 = v2;
  EXPECT_TRUE(v3 == v2);
  EXPECT_FALSE(v1 == v2);
  ASSERT_TRUE(ApplyPageOp(&v3, InsertOp("d", "4"), 6).ok());
  EXPECT_FALSE(v3 == v2);
  EXPECT_EQ(v2.entries.size(), 3u);
}

// ---------------------------------------------------------------------- //
// SegmentStore: write path + SCL

TEST(SegmentStore, AppendAdvancesScl) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp())}).ok());
  ASSERT_TRUE(store.Append({DataRecord(2, 1, 7, 1, InsertOp("k", "v"))}).ok());
  EXPECT_EQ(store.scl(), 2u);
  EXPECT_EQ(store.stats().records_received, 2u);
}

TEST(SegmentStore, DuplicateAppendCounted) {
  auto store = MakeStore();
  auto rec = DataRecord(1, 0, 7, 0, FormatOp());
  ASSERT_TRUE(store.Append({rec}).ok());
  ASSERT_TRUE(store.Append({rec}).ok());
  EXPECT_EQ(store.stats().records_duplicate, 1u);
}

TEST(SegmentStore, WrongPgRejected) {
  auto store = MakeStore();
  auto rec = DataRecord(1, 0, 7, 0, FormatOp());
  rec.pg = 3;
  EXPECT_FALSE(store.Append({rec}).ok());
}

TEST(SegmentStore, EpochChecks) {
  auto store = MakeStore();
  EXPECT_TRUE(store.CheckEpochs({1, 1}).ok());
  EXPECT_TRUE(store.CheckEpochs({0, 1}).IsStaleEpoch());
  // Newer volume epoch teaches the node.
  EXPECT_TRUE(store.CheckEpochs({5, 1}).ok());
  EXPECT_EQ(store.volume_epoch(), 5u);
  EXPECT_TRUE(store.CheckEpochs({4, 1}).IsStaleEpoch());
  EXPECT_TRUE(store.CheckEpochs({5, 0}).IsStaleEpoch());
}

// ---------------------------------------------------------------------- //
// SegmentStore: coalesce + reads

TEST(SegmentStore, CoalesceMaterializesVersions) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))})
                  .ok());
  // No reader's minimum is known yet, so nothing may be folded away.
  EXPECT_EQ(store.CoalesceStep(100), 0u);
  EXPECT_EQ(store.FoldedLsn(7), kInvalidLsn);
  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 2u);
  // PGMRPL 2: records 1 and 2 fold into the block's one page, in place.
  store.ObservePgmrpl(2);
  EXPECT_EQ(store.CoalesceStep(100), 2u);
  EXPECT_EQ(store.FoldedLsn(7), 2u);
  EXPECT_EQ(store.PendingRedoCount(), 1u);
  page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 2u);
  page = store.ReadPage(7, 2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 1u);
  EXPECT_EQ(store.ReadPage(7, 1).status().code(), StatusCode::kOutOfRange);
}

TEST(SegmentStore, OnDemandMaterializationWithoutCoalesce) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))})
                  .ok());
  // No CoalesceStep: the read materializes on demand (§2.2).
  auto page = store.ReadPage(7, 2);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(page->page_lsn, 2u);
  EXPECT_EQ(page->entries.at("a"), "1");
}

TEST(SegmentStore, ReadsAtOlderLsnSeeOlderVersion) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "v2"))})
                  .ok());
  store.CoalesceStep(100);
  auto old_page = store.ReadPage(7, 2);
  ASSERT_TRUE(old_page.ok());
  EXPECT_EQ(old_page->entries.at("k"), "v1");
  auto new_page = store.ReadPage(7, 3);
  ASSERT_TRUE(new_page.ok());
  EXPECT_EQ(new_page->entries.at("k"), "v2");
}

TEST(SegmentStore, ReadAboveSclRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp())}).ok());
  EXPECT_EQ(store.ReadPage(7, 5).status().code(), StatusCode::kUnavailable);
}

TEST(SegmentStore, ReadBelowPgmrplRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))})
                  .ok());
  store.ObservePgmrpl(2);
  EXPECT_EQ(store.ReadPage(7, 1).status().code(), StatusCode::kOutOfRange);
}

// PGMRPL is a global LSN; a read point clamped to the block's group may
// sit below it. The node refuses only reads below the block's newest
// change at or below PGMRPL, whether that change is folded or pending.
TEST(SegmentStore, ReadBelowPgmrplServedIfBlockUnchangedSince) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(95, 0, 7, 0, FormatOp()),
                            DataRecord(97, 95, 7, 95, InsertOp("a", "1")),
                            DataRecord(99, 97, 8, 0, FormatOp()),
                            DataRecord(101, 99, 7, 97, InsertOp("b", "2"))})
                  .ok());
  store.ObservePgmrpl(100);
  for (const bool folded : {false, true}) {
    SCOPED_TRACE(folded ? "folded" : "pending");
    if (folded) {
      EXPECT_EQ(store.CoalesceStep(100), 3u);
      EXPECT_EQ(store.FoldedLsn(7), 97u);
    }
    auto page = store.ReadPage(7, 97);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page->page_lsn, 97u);
    EXPECT_EQ(page->entries.size(), 1u);
    EXPECT_EQ(store.ReadPage(7, 95).status().code(), StatusCode::kOutOfRange);
    page = store.ReadPage(7, 101);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page->entries.size(), 2u);
  }
}

TEST(SegmentStore, TailSegmentServesNoPages) {
  auto store = MakeStore(/*is_full=*/false);
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp())}).ok());
  EXPECT_EQ(store.CoalesceStep(100), 0u);
  EXPECT_EQ(store.ReadPage(7, 1).status().code(), StatusCode::kNotSupported);
  EXPECT_EQ(store.scl(), 1u) << "tail still tracks the log chain";
}

// ---------------------------------------------------------------------- //
// SegmentStore: GC, backup, scrub

TEST(SegmentStore, GcRequiresBackupAndCoalesce) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))})
                  .ok());
  EXPECT_EQ(store.GarbageCollect(), 0u) << "nothing backed up yet";
  store.ObservePgmrpl(2);
  store.CoalesceStep(100);
  store.MarkBackedUp(2);
  EXPECT_GT(store.GarbageCollect(), 0u);
  EXPECT_EQ(store.hot_log().RecordCount(), 0u);
  // Reads still work from materialized versions.
  EXPECT_TRUE(store.ReadPage(7, 2).ok());
}

TEST(SegmentStore, VersionGcKeepsNewestAtOrBelowPgmrpl) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "v2")),
                            DataRecord(4, 3, 7, 3, InsertOp("k", "v3"))})
                  .ok());
  store.ObservePgmrpl(3);
  store.CoalesceStep(100);
  store.GarbageCollect();
  // Records 1-3 folded into one page at 3 (the newest <= PGMRPL); record 4
  // stays pending above it.
  EXPECT_EQ(store.FoldedLsn(7), 3u);
  EXPECT_EQ(store.PendingRedoCount(), 1u);
  auto page = store.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.at("k"), "v2");
  page = store.ReadPage(7, 4);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.at("k"), "v3");
  EXPECT_EQ(store.ReadPage(7, 2).status().code(), StatusCode::kOutOfRange);
}

TEST(SegmentStore, PendingBackupOnlyChainComplete) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))})
                  .ok());
  auto pending = store.PendingBackup(100);
  ASSERT_EQ(pending.size(), 1u) << "record 3 is beyond SCL (gap at 2)";
  EXPECT_EQ(pending[0].lsn, 1u);
}

TEST(SegmentStore, ScrubDetectsAndDropsCorruption) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1"))})
                  .ok());
  EXPECT_EQ(store.Scrub(), 0u);
  ASSERT_TRUE(store.CorruptRecordForTest(2));
  EXPECT_EQ(store.Scrub(), 1u);
  EXPECT_EQ(store.scl(), 1u) << "corrupt record dropped; SCL rewound";
  // Gossip redelivery heals.
  ASSERT_TRUE(
      store.AbsorbGossip({DataRecord(2, 1, 7, 1, InsertOp("a", "1"))}).ok());
  EXPECT_EQ(store.scl(), 2u);
}

// ---------------------------------------------------------------------- //
// SegmentStore: truncation & hydration

TEST(SegmentStore, TruncationDropsAnnulledVersions) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("k", "v1")),
                            DataRecord(3, 2, 7, 2, InsertOp("k", "dead"))})
                  .ok());
  store.ObservePgmrpl(2);  // version 2 folded, version 3 still pending
  store.CoalesceStep(100);
  VolumeEpochUpdateRequest request;
  request.segment = 0;
  request.new_epoch = 2;
  request.truncation = log::TruncationRange{3, 1000};
  ASSERT_TRUE(store.UpdateVolumeEpoch(request).ok());
  EXPECT_EQ(store.scl(), 2u);
  auto page = store.ReadPage(7, 2);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.at("k"), "v1") << "annulled version dropped";
  // Stale epoch update rejected.
  EXPECT_TRUE(store.UpdateVolumeEpoch(request).IsStaleEpoch());
}

TEST(SegmentStore, HydrationViaGossipRecords) {
  auto donor = MakeStore();
  ASSERT_TRUE(donor.Append({DataRecord(1, 0, 7, 0, FormatOp()),
                            DataRecord(2, 1, 7, 1, InsertOp("a", "1")),
                            DataRecord(3, 2, 7, 2, InsertOp("b", "2"))})
                  .ok());
  donor.CoalesceStep(100);

  quorum::SegmentInfo fresh_info{6, 110, 2, true};
  SegmentStore fresh(fresh_info, 0, TestConfig(), 1, /*hydrated=*/false);
  fresh.BeginHydration(/*target_scl=*/3);
  EXPECT_FALSE(fresh.hydrated());

  HydrationRequest request{0, 6, fresh.scl(), true};
  auto response = donor.BuildHydration(request);
  ASSERT_TRUE(fresh.AbsorbHydration(response).ok());
  EXPECT_TRUE(fresh.hydrated());
  EXPECT_EQ(fresh.scl(), 3u);
  auto page = fresh.ReadPage(7, 3);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->entries.size(), 2u);
}

TEST(SegmentStore, MembershipInstallMonotone) {
  auto store = MakeStore();
  auto next = TestConfig().BeginReplace(5, quorum::SegmentInfo{6, 110, 2, true});
  MembershipUpdateRequest request;
  request.segment = 0;
  request.expected_epoch = 1;
  request.config = *next;
  ASSERT_TRUE(store.UpdateMembership(request).ok());
  EXPECT_EQ(store.config().epoch(), 2u);
  EXPECT_TRUE(store.UpdateMembership(request).IsStaleEpoch());
}

// ---------------------------------------------------------------------- //
// SimDisk & ObjectStore

TEST(SimDisk, FifoQueueing) {
  sim::Simulator sim;
  DiskOptions options;
  options.write_latency = LatencyDistribution::Constant(100);
  options.bytes_per_us = 0;
  SimDisk disk(&sim, options);
  std::vector<int> order;
  disk.SubmitWrite(10, [&]() { order.push_back(1); });
  disk.SubmitWrite(10, [&]() { order.push_back(2); });
  EXPECT_EQ(disk.QueueDepth(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.Now(), 200) << "serial service";
  EXPECT_EQ(disk.ops_completed(), 2u);
}

TEST(ObjectStore, PutThenGetVisibleAfterLatency) {
  sim::Simulator sim;
  ObjectStore store(&sim);
  std::vector<log::RedoRecord> records = {
      DataRecord(1, 0, 7, 0, FormatOp()),
      DataRecord(2, 1, 7, 1, InsertOp("a", "1"))};
  Lsn archived = kInvalidLsn;
  store.Put(0, records, [&](Lsn max_lsn) { archived = max_lsn; });
  sim.Run();
  EXPECT_EQ(archived, 2u);
  EXPECT_EQ(store.MaxArchivedLsn(0), 2u);

  std::vector<log::RedoRecord> fetched;
  store.Get(0, 1, 10, [&](std::vector<log::RedoRecord> r) {
    fetched = std::move(r);
  });
  sim.Run();
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_GT(store.bytes_stored(), 0u);
}

TEST(ObjectStore, DeduplicatesRecords) {
  sim::Simulator sim;
  ObjectStore store(&sim);
  auto rec = DataRecord(1, 0, 7, 0, FormatOp());
  store.Put(0, {rec}, [](Lsn) {});
  store.Put(0, {rec}, [](Lsn) {});
  sim.Run();
  EXPECT_EQ(store.bytes_stored(), rec.SerializedSize());
}

// ---------------------------------------------------------------------- //
// StorageNode: group-committed update queue

// One storage node (id 100) hosting segment 0 of PG 0 and segment 6 of
// PG 1, with a constant 100us write/read service time so every ack time
// is exact.
struct NodeFixture {
  static constexpr SimDuration kServiceUs = 100;
  static constexpr NodeId kNode = 100;

  sim::Simulator sim{7};
  sim::Network network{&sim};
  std::unique_ptr<StorageNode> node;

  NodeFixture() {
    StorageNodeOptions options;
    options.background_enabled = false;
    options.disk.write_latency = LatencyDistribution::Constant(kServiceUs);
    options.disk.read_latency = LatencyDistribution::Constant(kServiceUs);
    options.disk.bytes_per_us = 0;
    node = std::make_unique<StorageNode>(&sim, &network, kNode, 0, nullptr,
                                         options);
    node->AddSegment({0, kNode, 0, true}, 0, TestConfig(), 1);
    std::vector<quorum::SegmentInfo> members;
    for (SegmentId id = 6; id < 12; ++id) {
      members.push_back({id, static_cast<NodeId>(kNode + id - 6),
                         static_cast<AzId>((id - 6) / 2), true});
    }
    node->AddSegment(members[0], 1,
                     quorum::PgConfig::Create(
                         1, quorum::QuorumModel::kUniform46, members),
                     1);
  }

  struct Ack {
    int tag;
    SimTime at;
    WriteAck ack;  ///< the first part's result
    WriteResponse response;
  };

  struct Part {
    SegmentId segment;
    Lsn lsn;
    EpochVector epochs = {1, 1};
  };

  // Sends one message at `at` with a one-record part per entry of `parts`
  // (PG = segment / 6); its reply is appended to `acks` tagged `tag`.
  void WritePartsAt(SimTime at, int tag, std::vector<Part> parts) {
    sim.ScheduleAt(at, [this, tag, parts]() {
      WriteRequest request;
      for (const Part& p : parts) {
        log::RedoRecord record =
            DataRecord(p.lsn, p.lsn - 1, 7, 0, FormatOp());
        record.pg = static_cast<ProtectionGroupId>(p.segment / 6);
        request.parts.push_back(SegmentWrite{p.segment, p.epochs, {record}});
      }
      node->HandleWrite(request, [this, tag](WriteResponse response) {
        WriteAck first = response.acks.front();
        acks.push_back(
            Ack{tag, sim.Now(), std::move(first), std::move(response)});
      });
    });
  }

  // A one-part message carrying record `lsn` for `segment`.
  void WriteAt(SimTime at, int tag, SegmentId segment, Lsn lsn,
               EpochVector epochs = {1, 1}) {
    WritePartsAt(at, tag, {Part{segment, lsn, epochs}});
  }

  std::vector<int> AckTags() const {
    std::vector<int> tags;
    for (const auto& a : acks) tags.push_back(a.tag);
    return tags;
  }

  std::vector<Ack> acks;
};

TEST(StorageNode, WriteToIdleNodeIsOneImmediateDeviceOp) {
  NodeFixture f;
  f.WriteAt(0, 1, 0, 1);
  f.sim.Run();
  ASSERT_EQ(f.acks.size(), 1u);
  EXPECT_TRUE(f.acks[0].ack.status.ok());
  EXPECT_EQ(f.acks[0].at, NodeFixture::kServiceUs)
      << "an idle node must add no queueing to the ack";
  EXPECT_EQ(f.acks[0].ack.scl, 1u);
  EXPECT_EQ(f.node->disk().ops_completed(), 1u);
}

TEST(StorageNode, WritesArrivingDuringAnAppendShareOneDeviceOp) {
  NodeFixture f;
  f.WriteAt(0, 1, 0, 1);  // idle: goes to the device at once
  // Three writes for two segments arrive while that append is on the
  // device: they must leave together as the next group.
  f.WriteAt(10, 2, 0, 2);
  f.WriteAt(20, 3, 6, 1);
  f.WriteAt(30, 4, 0, 3);
  f.sim.Run();
  EXPECT_EQ(f.node->disk().ops_completed(), 2u);
  ASSERT_EQ(f.AckTags(), (std::vector<int>{1, 2, 3, 4}))
      << "acks must follow arrival order";
  EXPECT_EQ(f.acks[0].at, NodeFixture::kServiceUs);
  for (size_t i = 1; i < f.acks.size(); ++i) {
    EXPECT_TRUE(f.acks[i].ack.status.ok());
    EXPECT_EQ(f.acks[i].at, 2 * NodeFixture::kServiceUs)
        << "group submitted when the first append completed";
  }
  // Each ack reports its own segment's SCL right after its append.
  EXPECT_EQ(f.acks[1].ack.scl, 2u);
  EXPECT_EQ(f.acks[2].ack.segment, 6u);
  EXPECT_EQ(f.acks[2].ack.scl, 1u);
  EXPECT_EQ(f.acks[3].ack.scl, 3u);
  EXPECT_EQ(f.node->FindSegment(0)->scl(), 3u);
  EXPECT_EQ(f.node->FindSegment(6)->scl(), 1u);
}

TEST(StorageNode, CrashDuringGroupAppendLosesTheWholeGroup) {
  NodeFixture f;
  f.WriteAt(0, 1, 0, 1);   // on the device until t=100
  f.WriteAt(10, 2, 0, 2);  // queued behind it
  f.sim.ScheduleAt(20, [&]() { f.network.Crash(NodeFixture::kNode); });
  f.sim.ScheduleAt(30, [&]() { f.network.Restart(NodeFixture::kNode); });
  // After the quick restart the driver re-sends record 1. The stale device
  // op still holds the device until t=100, so this group runs 100..200.
  f.WriteAt(40, 3, 0, 1);
  f.sim.Run();
  ASSERT_EQ(f.AckTags(), (std::vector<int>{3}))
      << "no ack may come from a group that straddled a crash";
  EXPECT_EQ(f.acks[0].at, 2 * NodeFixture::kServiceUs);
  EXPECT_TRUE(f.acks[0].ack.status.ok());
  const SegmentStore* segment = f.node->FindSegment(0);
  EXPECT_EQ(segment->stats().records_received, 1u)
      << "the lost group appended nothing";
  EXPECT_FALSE(segment->hot_log().Contains(2));
  EXPECT_EQ(segment->scl(), 1u);
}

TEST(StorageNode, StaleOrUnknownWritesRejectedBeforeQueueing) {
  NodeFixture f;
  f.WriteAt(0, 1, 0, 1);  // keeps the device busy until t=100
  f.WriteAt(10, 2, 0, 2, EpochVector{0, 1});  // stale volume epoch
  f.WriteAt(20, 3, 42, 1);                    // no such segment
  f.sim.Run();
  ASSERT_EQ(f.AckTags(), (std::vector<int>{2, 3, 1}));
  EXPECT_EQ(f.acks[0].at, 10) << "rejected on arrival, not queued";
  EXPECT_TRUE(f.acks[0].ack.status.IsStaleEpoch());
  EXPECT_EQ(f.acks[1].at, 20);
  EXPECT_TRUE(f.acks[1].ack.status.IsNotFound());
  EXPECT_EQ(f.node->disk().ops_completed(), 1u);
  EXPECT_EQ(f.node->FindSegment(0)->scl(), 1u);
}

TEST(StorageNode, TwoPartMessageIsOneDeviceWriteAndOneReply) {
  NodeFixture f;
  f.WritePartsAt(0, 1, {{0, 1}, {6, 1}});
  f.sim.Run();
  ASSERT_EQ(f.acks.size(), 1u) << "one reply per message";
  EXPECT_EQ(f.acks[0].at, NodeFixture::kServiceUs)
      << "both parts ride the idle device's first write";
  EXPECT_EQ(f.node->disk().ops_completed(), 1u);
  const auto& acks = f.acks[0].response.acks;
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0].segment, 0u);
  EXPECT_EQ(acks[1].segment, 6u);
  for (const auto& ack : acks) {
    EXPECT_TRUE(ack.status.ok()) << ack.status.ToString();
    EXPECT_EQ(ack.scl, 1u);
  }
  EXPECT_EQ(f.node->FindSegment(0)->scl(), 1u);
  EXPECT_EQ(f.node->FindSegment(6)->scl(), 1u);
}

TEST(StorageNode, RejectedPartDoesNotHoldBackTheOthers) {
  NodeFixture f;
  f.WritePartsAt(0, 1, {{42, 1}, {0, 1}});  // unknown segment first
  f.WritePartsAt(1000, 2, {{0, 2, EpochVector{0, 1}}, {6, 1}});  // stale
  f.sim.Run();
  ASSERT_EQ(f.AckTags(), (std::vector<int>{1, 2}));
  EXPECT_EQ(f.node->disk().ops_completed(), 2u)
      << "the accepted part of each message is one device write";

  const auto& first = f.acks[0].response.acks;
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(f.acks[0].at, NodeFixture::kServiceUs);
  EXPECT_TRUE(first[0].status.IsNotFound());
  EXPECT_TRUE(first[1].status.ok());
  EXPECT_EQ(first[1].scl, 1u);

  const auto& second = f.acks[1].response.acks;
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(f.acks[1].at, 1000 + NodeFixture::kServiceUs);
  EXPECT_TRUE(second[0].status.IsStaleEpoch());
  EXPECT_EQ(second[0].scl, 1u) << "a rejected part still reports its SCL";
  EXPECT_TRUE(second[1].status.ok());
  EXPECT_EQ(second[1].scl, 1u);
  EXPECT_EQ(f.node->FindSegment(0)->scl(), 1u);
  EXPECT_EQ(f.node->FindSegment(6)->scl(), 1u);
}

TEST(StorageNode, CrashDuringMultiPartAppendSendsNoReply) {
  NodeFixture f;
  f.WritePartsAt(0, 1, {{0, 1}, {6, 1}});  // on the device until t=100
  f.sim.ScheduleAt(20, [&]() { f.network.Crash(NodeFixture::kNode); });
  f.sim.ScheduleAt(30, [&]() { f.network.Restart(NodeFixture::kNode); });
  f.sim.Run();
  EXPECT_TRUE(f.acks.empty())
      << "a message whose device write straddled a crash is never answered";
  EXPECT_EQ(f.node->FindSegment(0)->scl(), kInvalidLsn);
  EXPECT_EQ(f.node->FindSegment(6)->scl(), kInvalidLsn);
}

TEST(WriteMessages, OnlyPartsBeyondTheFirstAddWireBytes) {
  const log::RedoRecord record = DataRecord(1, 0, 7, 0, FormatOp());
  const uint64_t record_bytes = record.SerializedSize();
  WriteRequest one;
  one.parts.push_back(SegmentWrite{0, {1, 1}, {record, record}});
  EXPECT_EQ(one.SerializedSize(), kMessageOverheadBytes + 2 * record_bytes)
      << "a one-part message costs one envelope plus its records";
  WriteRequest two = one;
  two.parts.push_back(SegmentWrite{6, {1, 1}, {record}});
  EXPECT_EQ(two.SerializedSize(), kMessageOverheadBytes +
                                       kWritePartOverheadBytes +
                                       3 * record_bytes);
  WriteResponse reply;
  reply.acks.resize(1);
  EXPECT_EQ(reply.SerializedSize(), kMessageOverheadBytes);
  reply.acks.resize(2);
  EXPECT_EQ(reply.SerializedSize(),
            kMessageOverheadBytes + kWritePartOverheadBytes);
}

TEST(StorageNode, DropSegmentDuringDiskOpsRepliesNotFound) {
  // DropSegment (repair planner, membership commit) frees the segment
  // while a write, a page read and a hydration read are on the device;
  // each completion must re-resolve the segment instead of touching the
  // freed store (run under scripts/check.sh address to catch a regression).
  NodeFixture f;
  ASSERT_TRUE(f.node->FindSegment(0)
                  ->Append({DataRecord(1, 0, 7, 0, FormatOp())})
                  .ok());
  std::optional<Status> write_status, read_status, hydration_status;
  f.sim.ScheduleAt(0, [&]() {
    WriteRequest write;
    write.parts.push_back(
        SegmentWrite{0, {1, 1}, {DataRecord(2, 1, 7, 1, InsertOp("k", "v"))}});
    f.node->HandleWrite(write, [&](WriteResponse response) {
      write_status = response.acks[0].status;
    });
    ReadPageRequest read;
    read.segment = 0;
    read.epochs = {1, 1};
    read.block = 7;
    read.read_lsn = 1;
    f.node->HandleReadPage(read, [&](ReadPageResponse response) {
      read_status = response.status;
    });
    HydrationRequest hydration{0, 9, kInvalidLsn, true};
    f.node->HandleHydration(hydration, [&](HydrationResponse response) {
      hydration_status = response.status;
    });
    f.node->DropSegment(0);
  });
  f.sim.Run();
  ASSERT_TRUE(write_status.has_value());
  ASSERT_TRUE(read_status.has_value());
  ASSERT_TRUE(hydration_status.has_value());
  EXPECT_TRUE(write_status->IsNotFound());
  EXPECT_TRUE(read_status->IsNotFound());
  EXPECT_TRUE(hydration_status->IsNotFound());
  EXPECT_EQ(f.node->disk().ops_completed(), 3u);
}

TEST(StorageNode, BurstOfWritesNeedsFewerDeviceOpsThanRequests) {
  core::AuroraOptions options;
  options.seed = 31;
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  options.db.cache_pages = 1024;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("warm", "v").ok());

  auto device_ops = [&]() {
    uint64_t ops = 0;
    for (const auto& n : cluster.storage_nodes()) {
      ops += n->disk().ops_completed();
    }
    return ops;
  };
  const uint64_t ops_before = device_ops();
  const uint64_t requests_before =
      cluster.writer()->driver()->stats().write_requests;

  // 400 autocommit inserts, one every 10us: faster than a storage device
  // serves one append, so requests arrive while an append is on the disk.
  constexpr int kBurst = 400;
  int committed = 0;
  for (int i = 0; i < kBurst; ++i) {
    cluster.sim().Schedule(static_cast<SimDuration>(10 * i), [&, i]() {
      engine::DbInstance* writer = cluster.writer();
      const TxnId txn = writer->Begin();
      writer->Put(txn, "burst" + std::to_string(i), "v",
                  [&, writer, txn](Status st) {
                    ASSERT_TRUE(st.ok()) << st.ToString();
                    writer->Commit(txn, [&](Status c) {
                      if (c.ok()) ++committed;
                    });
                  });
    });
  }
  ASSERT_TRUE(cluster.RunUntil([&]() { return committed == kBurst; },
                               5 * kSecond));
  cluster.RunFor(50 * kMillisecond);  // let every copy land and ack

  const uint64_t requests =
      cluster.writer()->driver()->stats().write_requests - requests_before;
  const uint64_t ops = device_ops() - ops_before;
  EXPECT_GT(requests, 0u);
  EXPECT_LT(ops, requests)
      << "device ops summed over the storage nodes must be fewer than the "
         "write requests they received";
}

}  // namespace
}  // namespace aurora::storage

// Regression tests for truncation-history propagation (annulled timelines
// must never be resurrected) and archive-reset semantics.
namespace aurora::storage {
namespace {

quorum::PgConfig RegressionConfig() {
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  return quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46,
                                  members);
}

log::RedoRecord ChainRecord(Lsn lsn, Lsn prev) {
  log::RedoRecord rec;
  rec.lsn = lsn;
  rec.prev_lsn_segment = prev;
  rec.prev_lsn_block = 0;
  rec.pg = 0;
  rec.block = 3;
  PageOp op;
  op.type = PageOpType::kFormat;
  op.page_type = PageType::kLeaf;
  rec.payload = EncodePageOp(op);
  return rec;
}

TEST(SegmentStore, HydrationCarriesTruncationHistory) {
  // Donor lived through a recovery that annulled [3, 100].
  SegmentStore donor({0, 100, 0, true}, 0, RegressionConfig(), 1);
  ASSERT_TRUE(donor.Append({ChainRecord(1, 0), ChainRecord(2, 1),
                            ChainRecord(3, 2)}).ok());
  VolumeEpochUpdateRequest epoch_update;
  epoch_update.segment = 0;
  epoch_update.new_epoch = 2;
  epoch_update.truncation = log::TruncationRange{3, 100};
  ASSERT_TRUE(donor.UpdateVolumeEpoch(epoch_update).ok());
  ASSERT_TRUE(donor.Append({ChainRecord(101, 2)}).ok());
  ASSERT_EQ(donor.scl(), 101u);

  // A fresh segment hydrates from the donor, then is offered the annulled
  // record (e.g. from a stale archive): it must refuse it.
  SegmentStore fresh({9, 109, 2, true}, 0, RegressionConfig(), 2,
                     /*hydrated=*/false);
  fresh.BeginHydration(101);
  HydrationRequest request{0, 9, kInvalidLsn, true};
  ASSERT_TRUE(fresh.AbsorbHydration(donor.BuildHydration(request)).ok());
  EXPECT_TRUE(fresh.hydrated());
  EXPECT_EQ(fresh.scl(), 101u);
  ASSERT_TRUE(fresh.AbsorbGossip({ChainRecord(3, 2)}).ok());
  EXPECT_FALSE(fresh.hot_log().Contains(3))
      << "annulled record resurrected through hydration";
}

TEST(SegmentStore, ResetToArchivePreservesTruncations) {
  SegmentStore store({0, 100, 0, true}, 0, RegressionConfig(), 1);
  ASSERT_TRUE(store.Append({ChainRecord(1, 0), ChainRecord(2, 1)}).ok());
  VolumeEpochUpdateRequest epoch_update;
  epoch_update.segment = 0;
  epoch_update.new_epoch = 2;
  epoch_update.truncation = log::TruncationRange{2, 50};
  ASSERT_TRUE(store.UpdateVolumeEpoch(epoch_update).ok());

  // Restore from an archive that (legitimately) still contains the
  // annulled record 2: it must stay annulled.
  store.ResetToArchive({ChainRecord(1, 0), ChainRecord(2, 1)},
                       /*restore_point=*/60, /*new_epoch=*/3);
  EXPECT_EQ(store.scl(), 1u);
  EXPECT_FALSE(store.hot_log().Contains(2));
  // And the reset installed its own range above the restore point.
  ASSERT_TRUE(store.Append({ChainRecord(61, 1)}).ok());
  EXPECT_FALSE(store.hot_log().Contains(61))
      << "old-timeline record above the restore point must be annulled";
}

}  // namespace
}  // namespace aurora::storage
