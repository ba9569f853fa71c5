// End-to-end smoke tests: bootstrap, write/commit/read, consistency-point
// advancement, crash recovery, and replica basics on a full cluster.

#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "src/core/cluster.h"

namespace aurora {
namespace {

core::AuroraOptions SmallOptions() {
  core::AuroraOptions options;
  options.seed = 7;
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  options.db.cache_pages = 1024;
  return options;
}

TEST(ClusterSmoke, BootstrapAndPutGet) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("alpha", "1").ok());
  ASSERT_TRUE(cluster.PutBlocking("beta", "2").ok());

  auto alpha = cluster.GetBlocking("alpha");
  ASSERT_TRUE(alpha.ok()) << alpha.status().ToString();
  EXPECT_EQ(*alpha, "1");
  auto beta = cluster.GetBlocking("beta");
  ASSERT_TRUE(beta.ok());
  EXPECT_EQ(*beta, "2");

  auto missing = cluster.GetBlocking("gamma");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(ClusterSmoke, ConsistencyPointsAdvance) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  const Lsn vcl_before = cluster.writer()->vcl();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster.PutBlocking("key" + std::to_string(i), "v").ok());
  }
  EXPECT_GT(cluster.writer()->vcl(), vcl_before);
  EXPECT_LE(cluster.writer()->vdl(), cluster.writer()->vcl());
  EXPECT_GT(cluster.writer()->vdl(), vcl_before);
}

TEST(ClusterSmoke, OverwriteAndDelete) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("k", "v1").ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "v2").ok());
  auto v = cluster.GetBlocking("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2");

  ASSERT_TRUE(cluster.DeleteBlocking("k").ok());
  EXPECT_TRUE(cluster.GetBlocking("k").status().IsNotFound());
}

TEST(ClusterSmoke, ManyKeysForceSplits) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  // Enough keys to force several leaf and internal splits.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, std::to_string(i)).ok()) << i;
  }
  auto path =
      cluster.writer()->btree()->FindPathSync(engine::DataKey("k00000"));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_GT(path->size(), 1u) << "the root leaf never split";
  for (int i = 0; i < n; i += 37) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i);
    auto v = cluster.GetBlocking(key);
    ASSERT_TRUE(v.ok()) << key << ": " << v.status().ToString();
    EXPECT_EQ(*v, std::to_string(i));
  }
}

// Split redo is page-local: each record carries all its one page's replay
// needs, so the writer's cache, a full segment's ReadPage at VDL and a
// replica's cache build the same pages. Eight-entry pages and a mix of
// random and ascending keys force leaf, internal and root splits; the
// status index (txn order = key order) grows by append splits.
TEST(ClusterSmoke, SplitRedoReplaysToSamePagesEverywhere) {
  core::AuroraOptions options = SmallOptions();
  options.db.btree.max_entries = 8;
  const size_t max_entries = options.db.btree.max_entries;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  replica::ReadReplica* rep = cluster.AddReplica();
  ASSERT_NE(rep, nullptr);
  engine::DbInstance* writer = cluster.writer();
  engine::BTree* tree = writer->btree();
  auto page_of = [&](BlockId block) { return writer->cache().Peek(block); };

  // Plans a would-be insert without applying it; the allocator stages a
  // cursor bump as the writer's does.
  const engine::BTree::BlockAllocator probe_alloc =
      [](std::vector<engine::StagedOp>* ops) {
        storage::PageOp bump;
        bump.type = storage::PageOpType::kInsert;
        bump.key = engine::AllocCursorKey(0);
        bump.value = engine::EncodeU64Value(2);
        ops->push_back({engine::kMetaBlock, bump});
        return BlockId{1};
      };
  int leaf_splits_probed = 0;
  int append_splits = 0;
  std::vector<TxnId> committed;
  std::vector<std::string> written;

  auto write = [&](const std::string& user_key) {
    // A leaf split whose parent has room is at most six records (cursor
    // bump, right page's format, new key's insert, truncate, set-links,
    // router), however many entries move.
    const std::string key = engine::DataKey(user_key);
    auto path = tree->FindPathSync(key);
    ASSERT_TRUE(path.ok()) << path.status().ToString();
    const storage::Page* leaf = page_of(path->back());
    if (path->size() >= 2 && leaf->entries.size() == max_entries &&
        !leaf->entries.contains(key) &&
        page_of((*path)[path->size() - 2])->entries.size() < max_entries) {
      auto plan = tree->PlanInsert(*path, key, "v", probe_alloc);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_LE(plan->size(), 6u) << user_key;
      leaf_splits_probed++;
    }

    const TxnId txn = writer->Begin();
    bool put_done = false;
    writer->Put(txn, user_key, "v" + user_key, [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      put_done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));
    // Is this commit's status insert an append split at the right edge?
    const std::string status_key = engine::StatusKey(txn);
    auto status_path = tree->FindPathSync(status_key);
    ASSERT_TRUE(status_path.ok());
    const BlockId status_leaf = status_path->back();
    const storage::Page* before = page_of(status_leaf);
    const bool append = before->next == kInvalidBlock &&
                        before->entries.size() == max_entries &&
                        std::prev(before->entries.end())->first < status_key;
    ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
    if (append) {
      // Nothing moved: the left leaf stays full and the new right leaf
      // starts with just the status key.
      const storage::Page* left = page_of(status_leaf);
      EXPECT_EQ(left->entries.size(), max_entries);
      ASSERT_NE(left->next, kInvalidBlock);
      const storage::Page* right = page_of(left->next);
      ASSERT_NE(right, nullptr);
      EXPECT_EQ(right->entries.begin()->first, status_key);
      append_splits++;
    }
    committed.push_back(txn);
    written.push_back(user_key);
    // Replica reads now and then, so its cache holds pages that later split.
    if (written.size() % 16 == 0) {
      bool read_done = false;
      rep->Get(written[written.size() / 2], [&](Result<std::string>) {
        read_done = true;
      });
      ASSERT_TRUE(cluster.RunUntil([&]() { return read_done; }));
    }
  };
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "r%05d", i * 7919 % 100000);
    write(key);
    if (HasFatalFailure()) return;
  }
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "a%05d", i);
    write(key);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(leaf_splits_probed, 0);
  EXPECT_GT(append_splits, 0);

  cluster.RunFor(1000 * kMillisecond);
  const Lsn vdl = writer->vdl();
  ASSERT_EQ(vdl, writer->next_lsn() - 1);
  ASSERT_TRUE(cluster.RunUntil([&]() { return rep->vdl() == vdl; }));

  // Every router leads to a formatted page one level down, and the tree
  // grew past one internal level (leaf, internal and root splits).
  const storage::Page* meta = page_of(engine::kMetaBlock);
  const BlockId root =
      *engine::DecodeU64Value(meta->entries.at(engine::kMetaRootKey));
  EXPECT_GE(page_of(root)->level, 2);
  std::deque<BlockId> frontier{root};
  while (!frontier.empty()) {
    const storage::Page* node = page_of(frontier.front());
    frontier.pop_front();
    ASSERT_NE(node, nullptr);
    if (node->type == storage::PageType::kLeaf) continue;
    ASSERT_EQ(node->type, storage::PageType::kInternal);
    for (const auto& [router, child_ptr] : node->entries) {
      const BlockId child = *engine::DecodeU64Value(child_ptr);
      const storage::Page* page = page_of(child);
      ASSERT_NE(page, nullptr) << "router " << node->id << " -> " << child;
      EXPECT_NE(page->type, storage::PageType::kFree);
      EXPECT_EQ(page->level + 1, node->level);
      frontier.push_back(child);
    }
  }

  // The status index holds each committed txn's SCN, as the index path
  // of ResolveCommitScn reads it.
  for (TxnId txn : committed) {
    const auto scn = writer->txns().CommitScnOf(txn);
    ASSERT_TRUE(scn.has_value()) << txn;
    bool done = false;
    tree->GetEntry(engine::StatusKey(txn), [&](Result<std::string> raw) {
      ASSERT_TRUE(raw.ok()) << txn << ": " << raw.status().ToString();
      EXPECT_EQ(*engine::DecodeU64Value(*raw), *scn) << txn;
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }

  // Writer cache == full segment at VDL == replica cache, page for page.
  std::set<BlockId> blocks{engine::kMetaBlock};
  for (ProtectionGroupId pg = 0; pg < options.num_pgs; ++pg) {
    const uint64_t cursor = *engine::DecodeU64Value(
        meta->entries.at(engine::AllocCursorKey(pg)));
    for (uint64_t offset = 1; offset < cursor; ++offset) {
      blocks.insert(pg * options.blocks_per_pg + offset);
    }
  }
  size_t segment_pages = 0;
  size_t replica_pages = 0;
  cluster.ForEachSegment([&](storage::StorageNode*,
                             storage::SegmentStore* segment) {
    if (!segment->is_full()) return;
    for (BlockId block : blocks) {
      if (block / options.blocks_per_pg != segment->pg()) continue;
      const storage::Page* cached = page_of(block);
      ASSERT_NE(cached, nullptr) << block;
      // At VDL, clamped to the group's own completion point as the
      // driver's reads are: no record of this group lies in between.
      auto stored = segment->ReadPage(
          block, std::min(vdl, writer->pgcl(segment->pg())));
      ASSERT_TRUE(stored.ok()) << block << ": " << stored.status().ToString();
      EXPECT_EQ(*stored, *cached) << "segment " << segment->id() << " block "
                                  << block;
      segment_pages++;
    }
  });
  for (BlockId block : blocks) {
    const storage::Page* replica_page = rep->cache().Peek(block);
    if (replica_page == nullptr) continue;
    EXPECT_EQ(*replica_page, *page_of(block)) << "replica block " << block;
    replica_pages++;
  }
  EXPECT_GT(segment_pages, blocks.size());
  EXPECT_GT(replica_pages, 10u);
  EXPECT_GT(rep->stats().records_applied, 0u);
}

TEST(ClusterSmoke, MultiKeyTransactionCommit) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  int pending = 2;
  writer->Put(txn, "x", "10", [&](Status st) {
    ASSERT_TRUE(st.ok());
    pending--;
  });
  writer->Put(txn, "y", "20", [&](Status st) {
    ASSERT_TRUE(st.ok());
    pending--;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return pending == 0; }));
  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());

  EXPECT_EQ(*cluster.GetBlocking("x"), "10");
  EXPECT_EQ(*cluster.GetBlocking("y"), "20");
}

TEST(ClusterSmoke, RollbackRestoresPreviousVersions) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());

  ASSERT_TRUE(cluster.PutBlocking("a", "old").ok());
  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "a", "new", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  bool put2_done = false;
  writer->Put(txn, "b", "created", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put2_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done && put2_done; }));
  ASSERT_TRUE(cluster.RollbackBlocking(txn).ok());

  auto a = cluster.GetBlocking("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "old");
  EXPECT_TRUE(cluster.GetBlocking("b").status().IsNotFound());
}

TEST(ClusterSmoke, UncommittedInvisibleToOtherReaders) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("k", "committed").ok());

  auto* writer = cluster.writer();
  const TxnId txn = writer->Begin();
  bool put_done = false;
  writer->Put(txn, "k", "dirty", [&](Status st) {
    ASSERT_TRUE(st.ok());
    put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return put_done; }));

  // Autocommit reader must not see the uncommitted value.
  auto v = cluster.GetBlocking("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "committed");

  // But the writing transaction sees its own write.
  bool got = false;
  writer->Get(txn, "k", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, "dirty");
    got = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return got; }));
  ASSERT_TRUE(cluster.CommitBlocking(txn).ok());
}

TEST(ClusterSmoke, CrashRecoveryPreservesAckedCommits) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("p" + std::to_string(i), "v").ok());
  }
  const VolumeEpoch epoch_before = cluster.writer()->volume_epoch();
  cluster.CrashWriter();
  cluster.RunFor(50 * kMillisecond);
  ASSERT_TRUE(cluster.RecoverWriterBlocking().ok());
  EXPECT_GT(cluster.writer()->volume_epoch(), epoch_before);
  for (int i = 0; i < 30; ++i) {
    auto v = cluster.GetBlocking("p" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status().ToString();
    EXPECT_EQ(*v, "v");
  }
  // And the database accepts new work after recovery.
  ASSERT_TRUE(cluster.PutBlocking("after", "recovery").ok());
  EXPECT_EQ(*cluster.GetBlocking("after"), "recovery");
}

TEST(ClusterSmoke, ScanReturnsVisibleRows) {
  core::AuroraCluster cluster(SmallOptions());
  ASSERT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 20; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "s%03d", i);
    ASSERT_TRUE(cluster.PutBlocking(key, std::to_string(i)).ok());
  }
  bool done = false;
  std::vector<std::pair<std::string, std::string>> rows;
  cluster.writer()->Scan(
      kInvalidTxn, "s000", "s999", 100,
      [&](Result<std::vector<std::pair<std::string, std::string>>> r) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        rows = std::move(*r);
        done = true;
      });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_EQ(rows.size(), 20u);
  EXPECT_EQ(rows.front().first, "s000");
}

}  // namespace
}  // namespace aurora
