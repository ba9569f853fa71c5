// Property-based tests (parameterized over seeds) for the invariants
// enumerated in DESIGN.md §5: LSN/consistency-point monotonicity, SCL
// chain semantics under arbitrary delivery orders, gossip convergence,
// quorum overlap under random full/tail shapes, commit safety across
// repeated crashes, and snapshot isolation under a concurrent workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "src/core/cluster.h"
#include "src/log/hot_log.h"
#include "src/quorum/membership.h"
#include "src/storage/page.h"
#include "src/storage/segment_store.h"

namespace aurora {
namespace {

// ---------------------------------------------------------------------- //
// SCL correctness: for ANY delivery permutation and ANY subset of lost
// records, SCL equals the longest gap-free chain prefix.

class SclPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SclPropertyTest, SclEqualsContiguousPrefixUnderRandomDelivery) {
  Rng rng(GetParam());
  const Lsn n = 60;
  std::vector<log::RedoRecord> records;
  for (Lsn l = 1; l <= n; ++l) {
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = l - 1;
    rec.pg = 0;
    rec.block = 1;
    records.push_back(rec);
  }
  // Drop a random subset, shuffle the rest.
  std::vector<log::RedoRecord> delivered;
  std::set<Lsn> kept;
  for (const auto& rec : records) {
    if (rng.Bernoulli(0.8)) {
      delivered.push_back(rec);
      kept.insert(rec.lsn);
    }
  }
  for (size_t i = delivered.size(); i > 1; --i) {
    std::swap(delivered[i - 1], delivered[rng.NextBounded(i)]);
  }
  log::SegmentHotLog log;
  Lsn prev_scl = kInvalidLsn;
  for (const auto& rec : delivered) {
    ASSERT_TRUE(log.Append(rec).ok());
    ASSERT_GE(log.scl(), prev_scl) << "SCL must be monotone";
    prev_scl = log.scl();
  }
  // Model: longest prefix 1..k fully contained in kept.
  Lsn expected = 0;
  while (kept.contains(expected + 1)) expected++;
  EXPECT_EQ(log.scl(), expected);
}

// The hot log's O(1) in-order append and its per-record checksums, checked
// against a naive model under the mix a segment really sees: mostly
// in-order delivery of one PG's sparse chain (prev_lsn_segment skips the
// LSNs of other PGs), duplicates, late gap fills, and GC eviction,
// truncation and removal interleaved with the appends. After every step,
// SCL, membership of every LSN, record count and bytes equal a
// recomputation from the model, and scrub finds exactly what was
// corrupted — so each checksum stays aligned with its record.
TEST_P(SclPropertyTest, InOrderFastPathMatchesModelUnderMixedOps) {
  Rng rng(GetParam());
  const Lsn max_lsn = 300;
  std::vector<log::RedoRecord> chain;
  std::set<Lsn> chain_lsns;
  Lsn prev = kInvalidLsn;
  for (Lsn l = 1; l <= max_lsn; ++l) {
    if (!rng.Bernoulli(0.5)) continue;  // an LSN of another PG
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = prev;
    rec.block = 1 + rng.NextBounded(4);
    std::string payload(1 + rng.NextBounded(48), '\0');
    for (char& c : payload) c = static_cast<char>(rng.Next());
    rec.payload = log::Payload(std::move(payload));
    chain.push_back(rec);
    chain_lsns.insert(l);
    prev = l;
  }

  log::SegmentHotLog log;
  std::map<Lsn, const log::RedoRecord*> stored;
  std::vector<log::TruncationRange> truncations;
  Lsn floor = kInvalidLsn;
  auto annulled = [&](Lsn lsn) {
    for (const auto& range : truncations) {
      if (range.Annuls(lsn)) return true;
    }
    return false;
  };
  auto model_append = [&](const log::RedoRecord& rec) {
    if (annulled(rec.lsn) || (floor != kInvalidLsn && rec.lsn <= floor)) {
      return;
    }
    stored.emplace(rec.lsn, &rec);
  };
  // SCL: walk the stored records in LSN order from the GC floor while
  // each links to the last.
  auto model_scl = [&] {
    Lsn scl = floor;
    for (auto it = stored.upper_bound(floor);
         it != stored.end() && it->second->prev_lsn_segment == scl; ++it) {
      scl = it->first;
    }
    return scl;
  };
  auto check = [&](const std::string& step) {
    SCOPED_TRACE(step);
    ASSERT_EQ(log.scl(), model_scl());
    ASSERT_EQ(log.gc_floor(), floor);
    ASSERT_EQ(log.RecordCount(), stored.size());
    uint64_t bytes = 0;
    for (const auto& [lsn, rec] : stored) bytes += rec->SerializedSize();
    ASSERT_EQ(log.TotalBytes(), bytes);
    for (Lsn l = 1; l <= max_lsn + 1; ++l) {
      ASSERT_EQ(log.Contains(l), stored.contains(l)) << "lsn " << l;
    }
    ASSERT_TRUE(log.CorruptRecords().empty());
  };
  auto deliver = [&](const log::RedoRecord& rec, const char* what) {
    ASSERT_TRUE(log.Append(rec).ok());
    model_append(rec);
    check(std::string(what) + " " + std::to_string(rec.lsn));
  };
  // A random stored LSN, or kInvalidLsn if nothing is stored.
  auto pick_stored = [&]() -> Lsn {
    if (stored.empty()) return kInvalidLsn;
    auto it = stored.begin();
    std::advance(it, rng.NextBounded(stored.size()));
    return it->first;
  };

  size_t next = 0;
  std::vector<size_t> late;  // chain indices held back for a gap fill
  while ((next < chain.size() || !late.empty()) && !HasFatalFailure()) {
    const double op = rng.NextDouble();
    if (op < 0.70 && next < chain.size()) {
      if (rng.Bernoulli(0.1)) {
        late.push_back(next++);  // lost on the way; gossip fills it later
        continue;
      }
      deliver(chain[next++], "in-order");
    } else if (op < 0.80 && next > 0) {
      deliver(chain[rng.NextBounded(next)], "duplicate");
    } else if (op < 0.90 && !late.empty()) {
      const size_t i = rng.NextBounded(late.size());
      const size_t index = late[i];
      late.erase(late.begin() + static_cast<std::ptrdiff_t>(i));
      deliver(chain[index], "gap fill");
    } else if (op < 0.93) {
      // GC evicts a chain-complete prefix up to a bound at or below SCL.
      // Half the bounds are arbitrary LSNs, as SegmentStore's "first
      // pending LSN - 1" often is: another PG's LSN, off this chain. The
      // floor is the last record evicted either way, so a later rewind
      // still re-anchors on the chain.
      if (log.scl() == kInvalidLsn) continue;
      const Lsn lsn = rng.Bernoulli(0.5) ? pick_stored()
                                         : 1 + rng.NextBounded(log.scl());
      if (lsn == kInvalidLsn || lsn > log.scl()) continue;
      log.EvictBelow(lsn);
      const auto end = stored.upper_bound(lsn);
      if (end != stored.begin()) floor = std::max(floor, std::prev(end)->first);
      stored.erase(stored.begin(), end);
      check("evict " + std::to_string(lsn));
    } else if (op < 0.95) {
      const Lsn start = 1 + rng.NextBounded(max_lsn);
      const log::TruncationRange range{start, start + rng.NextBounded(8)};
      log.Truncate(range);
      truncations.push_back(range);
      stored.erase(stored.lower_bound(range.start),
                   stored.upper_bound(range.end));
      check("truncate " + std::to_string(range.start));
    } else if (op < 0.96) {
      const Lsn lsn = pick_stored();
      if (lsn == kInvalidLsn) continue;
      ASSERT_TRUE(log.Remove(lsn));
      stored.erase(lsn);
      check("remove " + std::to_string(lsn));
    } else if (op < 0.985) {
      // A stray record past the back (another PG's LSN) whose back-link
      // names SCL or something below it, but not its real predecessor:
      // SCL may follow it only if it is the next record above SCL and
      // names SCL exactly. Then it is dropped again.
      Lsn lsn = std::max(floor, stored.empty() ? kInvalidLsn
                                               : stored.rbegin()->first);
      do {
        ++lsn;
      } while (chain_lsns.contains(lsn));
      if (lsn > max_lsn || annulled(lsn)) continue;
      log::RedoRecord stray;
      stray.lsn = lsn;
      stray.prev_lsn_segment =
          rng.Bernoulli(0.5) ? log.scl() : rng.NextBounded(log.scl() + 1);
      deliver(stray, "stray");
      ASSERT_TRUE(log.Remove(lsn));
      stored.erase(lsn);
      check("drop stray " + std::to_string(lsn));
    } else {
      // Scrub: a flipped payload byte is found, exactly; dropping the
      // record and re-filling it from a peer leaves the log clean.
      const Lsn lsn = pick_stored();
      if (lsn == kInvalidLsn) continue;
      ASSERT_TRUE(log.CorruptPayloadForTest(lsn));
      ASSERT_EQ(log.CorruptRecords(), std::vector<Lsn>{lsn});
      ASSERT_TRUE(log.Remove(lsn));
      stored.erase(lsn);
      check("scrub " + std::to_string(lsn));
      for (size_t i = 0; i < next; ++i) {
        if (chain[i].lsn == lsn) late.push_back(i);
      }
    }
  }
  check("end");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SclPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------- //
// Fold to PGMRPL: a segment that keeps one folded page per block answers
// reads like a model that keeps every version of every block. Random
// appends (in order, late, duplicated), PGMRPL observations, folds, GC and
// scrub-and-refill interleave with reads. Every read in [PGMRPL, SCL] is
// answered and equals the model; a read below a block's folded LSN is
// refused; no read is ever answered wrong; SCL always equals the
// delivered chain prefix; a hydration reply holds every block as of SCL.

class FoldPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FoldPropertyTest, FoldedPagesMatchEveryVersionModel) {
  using Entries = std::map<std::string, std::string>;
  Rng rng(GetParam());
  // One PG's sparse chain over four blocks; a block's first record
  // formats it, later ones insert or erase keys.
  std::vector<log::RedoRecord> chain;
  std::map<BlockId, std::map<Lsn, Entries>> model;  // every version
  std::map<BlockId, Lsn> block_prev;
  Lsn prev = kInvalidLsn;
  for (Lsn l = 1; l <= 400; ++l) {
    if (!rng.Bernoulli(0.5)) continue;  // an LSN of another PG
    const BlockId block = 1 + rng.NextBounded(4);
    auto& versions = model[block];
    Entries entries = versions.empty() ? Entries{} : versions.rbegin()->second;
    storage::PageOp op;
    op.key = "k" + std::to_string(rng.NextBounded(6));
    if (versions.empty()) {
      op.type = storage::PageOpType::kFormat;
    } else if (rng.Bernoulli(0.2)) {
      op.type = storage::PageOpType::kErase;
      entries.erase(op.key);
    } else {
      op.type = storage::PageOpType::kInsert;
      op.value = "v" + std::to_string(l);
      entries[op.key] = op.value;
    }
    versions.emplace(l, std::move(entries));
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = prev;
    rec.prev_lsn_block = block_prev[block];
    rec.pg = 0;
    rec.block = block;
    rec.txn = 1;
    rec.payload = storage::EncodePageOp(op);
    chain.push_back(rec);
    block_prev[block] = l;
    prev = l;
  }
  std::vector<quorum::SegmentInfo> members;
  for (SegmentId id = 0; id < 6; ++id) {
    members.push_back({id, static_cast<NodeId>(100 + id),
                       static_cast<AzId>(id / 2), true});
  }
  storage::SegmentStore store(
      members[0], 0,
      quorum::PgConfig::Create(0, quorum::QuorumModel::kUniform46, members),
      /*volume_epoch=*/1);

  std::vector<bool> delivered(chain.size(), false);
  Lsn pgmrpl = kInvalidLsn;
  auto model_scl = [&] {
    Lsn scl = kInvalidLsn;
    for (size_t i = 0; i < chain.size() && delivered[i]; ++i) {
      scl = chain[i].lsn;
    }
    return scl;
  };
  // The model's version of `block` as of `lsn` (its LSN and entries), or
  // null if the block has none yet.
  auto model_at = [&](BlockId block,
                      Lsn lsn) -> const std::pair<const Lsn, Entries>* {
    const auto& versions = model[block];
    auto it = versions.upper_bound(lsn);
    return it == versions.begin() ? nullptr : &*std::prev(it);
  };
  auto as_map = [](const storage::Page& page) {
    return Entries(page.entries.begin(), page.entries.end());
  };
  auto deliver = [&](size_t i) {
    ASSERT_TRUE(store.Append({chain[i]}).ok());
    delivered[i] = true;
  };
  auto check_read = [&](BlockId block, Lsn read_lsn) {
    SCOPED_TRACE("read block " + std::to_string(block) + " at " +
                 std::to_string(read_lsn) + ", PGMRPL " +
                 std::to_string(pgmrpl));
    auto page = store.ReadPage(block, read_lsn);
    const auto* want = model_at(block, read_lsn);
    const Lsn folded = store.FoldedLsn(block);
    if (folded != kInvalidLsn && read_lsn < folded) {
      ASSERT_EQ(page.status().code(), StatusCode::kOutOfRange);
      return;
    }
    if (page.ok()) {
      ASSERT_NE(want, nullptr);
      ASSERT_EQ(page->page_lsn, want->first);
      ASSERT_EQ(as_map(*page), want->second);
      return;
    }
    if (want == nullptr && page.status().code() == StatusCode::kNotFound) {
      return;
    }
    ASSERT_LT(read_lsn, pgmrpl) << "a read in [PGMRPL, SCL] must be served: "
                                << page.status().ToString();
    ASSERT_EQ(page.status().code(), StatusCode::kOutOfRange);
  };
  auto check_hydration = [&] {
    const Lsn scl = store.scl();
    storage::HydrationRequest request{0, 1, scl, /*need_blocks=*/true};
    std::set<BlockId> seen;
    for (const auto& page : store.BuildHydration(request).pages) {
      SCOPED_TRACE("hydration page " + std::to_string(page.id));
      ASSERT_TRUE(seen.insert(page.id).second);
      const auto* want = model_at(page.id, scl);
      ASSERT_NE(want, nullptr);
      ASSERT_EQ(page.page_lsn, want->first);
      ASSERT_EQ(as_map(page), want->second);
    }
    for (const auto& [block, versions] : model) {
      ASSERT_EQ(seen.contains(block), model_at(block, scl) != nullptr);
    }
  };

  size_t next = 0;
  std::vector<size_t> late;
  for (int step = 0; step < 2000 && !HasFatalFailure(); ++step) {
    const double op = rng.NextDouble();
    if (op < 0.35 && next < chain.size()) {
      if (rng.Bernoulli(0.1)) {
        late.push_back(next++);
        continue;
      }
      deliver(next++);
    } else if (op < 0.42 && !late.empty()) {
      const size_t i = rng.NextBounded(late.size());
      deliver(late[i]);
      late.erase(late.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 0.45 && next > 0) {
      const size_t i = rng.NextBounded(next);
      if (delivered[i]) deliver(i);
    } else if (op < 0.53 && next > 0) {
      // The writer's minimum read point: anywhere up to the newest LSN
      // it has sent, possibly above this segment's SCL.
      const Lsn observed = rng.NextBounded(chain[next - 1].lsn + 1);
      store.ObservePgmrpl(observed);
      pgmrpl = std::max(pgmrpl, observed);
    } else if (op < 0.63) {
      store.CoalesceStep(1 + rng.NextBounded(8));
    } else if (op < 0.70) {
      if (store.scl() != kInvalidLsn) {
        store.MarkBackedUp(1 + rng.NextBounded(store.scl()));
      }
      store.GarbageCollect();
    } else if (op < 0.73) {
      // Scrub finds a flipped byte and drops the record; gossip refills
      // it at once.
      const auto held = store.hot_log().RecordsAbove(kInvalidLsn, 1024);
      if (held.empty()) continue;
      const Lsn lsn = held[rng.NextBounded(held.size())].lsn;
      const auto at = std::find_if(
          chain.begin(), chain.end(),
          [lsn](const log::RedoRecord& r) { return r.lsn == lsn; });
      ASSERT_TRUE(store.CorruptRecordForTest(lsn));
      ASSERT_EQ(store.Scrub(), 1u);
      deliver(static_cast<size_t>(at - chain.begin()));
    } else if (op < 0.96) {
      if (store.scl() == kInvalidLsn) continue;
      check_read(1 + rng.NextBounded(4), 1 + rng.NextBounded(store.scl()));
    } else {
      check_hydration();
    }
    ASSERT_EQ(store.scl(), model_scl()) << "step " << step;
  }
  // Deliver the rest, publish PGMRPL at SCL and fold everything: each
  // block is one page equal to the model's newest version.
  for (size_t i : late) deliver(i);
  while (next < chain.size()) deliver(next++);
  ASSERT_EQ(store.scl(), chain.back().lsn);
  store.ObservePgmrpl(store.scl());
  pgmrpl = std::max(pgmrpl, store.scl());
  while (store.CoalesceStep(16) > 0) {
  }
  EXPECT_EQ(store.PendingRedoCount(), 0u);
  for (const auto& [block, versions] : model) {
    EXPECT_EQ(store.FoldedLsn(block), versions.rbegin()->first);
    check_read(block, store.scl());
  }
  check_hydration();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------- //
// Gossip convergence: segments receiving random disjoint subsets converge
// to identical SCLs after pairwise gossip rounds.

class GossipPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GossipPropertyTest, PairwiseGossipConverges) {
  Rng rng(GetParam());
  const Lsn n = 40;
  const int num_segments = 6;
  std::vector<log::SegmentHotLog> logs(num_segments);
  for (Lsn l = 1; l <= n; ++l) {
    log::RedoRecord rec;
    rec.lsn = l;
    rec.prev_lsn_segment = l - 1;
    rec.pg = 0;
    rec.block = 1;
    // Each record lands on a random 4/6 write quorum.
    std::set<int> targets;
    while (targets.size() < 4) {
      targets.insert(static_cast<int>(rng.NextBounded(num_segments)));
    }
    for (int t : targets) ASSERT_TRUE(logs[t].Append(rec).ok());
  }
  // Gossip rounds: each segment pulls from a random peer.
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < num_segments; ++i) {
      const int peer = static_cast<int>(rng.NextBounded(num_segments));
      if (peer == i) continue;
      for (const auto& rec : logs[peer].ChainAfter(logs[i].scl(), 100)) {
        ASSERT_TRUE(logs[i].Append(rec).ok());
      }
    }
  }
  for (const auto& log : logs) {
    EXPECT_EQ(log.scl(), n) << "all segments converge to the full chain";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GossipPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------- //
// Quorum overlap for randomized full/tail layouts and AZ placements.

class FullTailPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FullTailPropertyTest, RandomLayoutsPreserveQuorumRules) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<quorum::SegmentInfo> members;
    int fulls = 0;
    for (SegmentId id = 0; id < 6; ++id) {
      quorum::SegmentInfo info;
      info.id = id;
      info.node = 100 + id;
      info.az = static_cast<AzId>(rng.NextBounded(3));
      info.is_full = rng.Bernoulli(0.5);
      if (info.is_full) fulls++;
      members.push_back(info);
    }
    if (fulls == 0) members[0].is_full = true;
    auto config = quorum::PgConfig::Create(0, quorum::QuorumModel::kFullTail,
                                           members);
    EXPECT_TRUE(quorum::QuorumSet::AlwaysOverlaps(config.ReadSet(),
                                                  config.WriteSet()))
        << config.ToString();
    EXPECT_TRUE(quorum::QuorumSet::AlwaysOverlaps(config.WriteSet(),
                                                  config.WriteSet()))
        << config.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullTailPropertyTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------- //
// Commit safety across repeated crashes: every acknowledged commit
// survives every subsequent crash/recovery; consistency points and the
// volume epoch never regress.

class CrashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashPropertyTest, AckedCommitsSurviveRepeatedCrashes) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.num_pgs = 2;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());

  std::map<std::string, std::string> acked;  // ground truth
  Rng rng(GetParam() * 31 + 7);
  VolumeEpoch last_epoch = cluster.writer()->volume_epoch();
  int key_counter = 0;
  for (int round = 0; round < 4; ++round) {
    // A burst of committed writes.
    const int burst = 5 + static_cast<int>(rng.NextBounded(10));
    for (int i = 0; i < burst; ++i) {
      std::string key = "k" + std::to_string(key_counter % 20);
      std::string value =
          "r" + std::to_string(round) + "-" + std::to_string(key_counter);
      key_counter++;
      ASSERT_TRUE(cluster.PutBlocking(key, value).ok());
      acked[key] = value;
    }
    // Some in-flight, never-committed work right before the crash.
    const TxnId loser = cluster.writer()->Begin();
    cluster.writer()->Put(loser, "loser-key", "round" + std::to_string(round),
                          [](Status) {});
    cluster.RunFor(rng.NextBounded(2) == 0 ? 0 : 200);

    cluster.CrashWriter();
    cluster.RunFor(10 * kMillisecond);
    ASSERT_TRUE(cluster.RecoverWriterBlocking().ok()) << "round " << round;
    ASSERT_GT(cluster.writer()->volume_epoch(), last_epoch)
        << "volume epoch must strictly advance per recovery";
    last_epoch = cluster.writer()->volume_epoch();

    for (const auto& [key, value] : acked) {
      auto v = cluster.GetBlocking(key);
      ASSERT_TRUE(v.ok()) << "round " << round << " lost " << key << ": "
                          << v.status().ToString();
      ASSERT_EQ(*v, value) << "round " << round;
    }
    // The loser transaction's write must not be visible.
    auto loser_read = cluster.GetBlocking("loser-key");
    ASSERT_TRUE(loser_read.status().IsNotFound())
        << "uncommitted write visible after recovery";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------- //
// Consistency-point monotonicity under a live workload with node churn.

class MonotonicityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotonicityPropertyTest, PointsNeverRegressUnderChurn) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.num_pgs = 1;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  Rng rng(GetParam());

  Lsn max_vcl = 0, max_vdl = 0;
  auto check = [&]() {
    ASSERT_GE(cluster.writer()->vcl(), max_vcl);
    ASSERT_GE(cluster.writer()->vdl(), max_vdl);
    ASSERT_LE(cluster.writer()->vdl(), cluster.writer()->vcl());
    max_vcl = cluster.writer()->vcl();
    max_vdl = cluster.writer()->vdl();
  };
  auto ids = cluster.StorageNodeIds();
  for (int step = 0; step < 60; ++step) {
    ASSERT_TRUE(
        cluster.PutBlocking("key" + std::to_string(step % 10), "v").ok());
    check();
    if (step % 10 == 3) {
      const NodeId victim = ids[rng.NextBounded(ids.size())];
      cluster.network().Crash(victim);
    }
    if (step % 10 == 7) {
      for (NodeId id : ids) cluster.network().Restart(id);
      cluster.RunFor(50 * kMillisecond);
    }
    check();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicityPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------- //
// Snapshot isolation: a reader's view is stable while concurrent writers
// commit around it.

class SnapshotPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotPropertyTest, RepeatableReadsWithinTransaction) {
  core::AuroraOptions options;
  options.seed = GetParam();
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  ASSERT_TRUE(cluster.StartBlocking().ok());
  ASSERT_TRUE(cluster.PutBlocking("shared", "v0").ok());

  auto* writer = cluster.writer();
  const TxnId reader = writer->Begin();
  // First read inside the transaction pins its snapshot.
  std::string first_read;
  bool done = false;
  writer->Get(reader, "shared", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok());
    first_read = *r;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_EQ(first_read, "v0");

  // Other transactions overwrite and commit repeatedly.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(cluster.PutBlocking("shared", "v" + std::to_string(i)).ok());
  }
  // The reader still sees its snapshot.
  done = false;
  writer->Get(reader, "shared", [&](Result<std::string> r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, "v0") << "snapshot isolation violated";
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  ASSERT_TRUE(cluster.CommitBlocking(reader).ok());
  // A fresh reader sees the latest committed value.
  EXPECT_EQ(*cluster.GetBlocking("shared"), "v5");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace aurora
