// Determinism tests: identical seeds must yield identical executions —
// the property the whole simulation substrate (and every reproducible
// benchmark number in EXPERIMENTS.md) rests on. Beyond the golden
// scenario, two sweeps run the cluster under failure-injector chaos and
// under a hedged read-heavy session mix, and require each seed to replay
// to an equal outcome.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/session.h"

namespace aurora {
namespace {

struct RunFingerprint {
  Lsn vcl = 0;
  Lsn vdl = 0;
  VolumeEpoch epoch = 0;
  uint64_t commits = 0;
  SimTime end_time = 0;
  uint64_t net_bytes = 0;
  uint64_t fleet_received = 0;
  uint64_t executed_events = 0;
  uint64_t schedule_fingerprint = 0;

  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint RunScenario(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  EXPECT_TRUE(cluster.StartBlocking().ok());
  // A scenario touching most subsystems: writes, a node crash, a
  // membership change, a writer crash + recovery, more writes.
  for (int i = 0; i < 40; ++i) {
    (void)cluster.PutBlocking("k" + std::to_string(i % 13),
                              "v" + std::to_string(i));
  }
  cluster.network().Crash(cluster.NodeForSegment(5)->id());
  (void)cluster.ReplaceSegmentBlocking(5);
  cluster.CrashWriter();
  cluster.RunFor(10 * kMillisecond);
  (void)cluster.RecoverWriterBlocking();
  for (int i = 0; i < 20; ++i) {
    (void)cluster.PutBlocking("post" + std::to_string(i), "v");
  }
  cluster.RunFor(500 * kMillisecond);

  RunFingerprint fp;
  fp.vcl = cluster.writer()->vcl();
  fp.vdl = cluster.writer()->vdl();
  fp.epoch = cluster.writer()->volume_epoch();
  fp.commits = cluster.writer()->stats().commits_acked;
  fp.end_time = cluster.sim().Now();
  fp.net_bytes = cluster.network().stats().bytes_delivered;
  fp.executed_events = cluster.sim().ExecutedEvents();
  fp.schedule_fingerprint = cluster.sim().ScheduleFingerprint();
  for (const auto& node : cluster.storage_nodes()) {
    for (const auto& [id, segment] : node->segments()) {
      fp.fleet_received += segment->stats().records_received;
    }
  }
  return fp;
}

TEST(Determinism, IdenticalSeedsIdenticalExecutions) {
  const RunFingerprint a = RunScenario(12345);
  const RunFingerprint b = RunScenario(12345);
  EXPECT_EQ(a, b) << "same seed must replay bit-identically";
  EXPECT_GT(a.commits, 0u);
  EXPECT_GT(a.net_bytes, 0u);
}

TEST(Determinism, MatchesPreZeroCopyGoldenFingerprint) {
  // Golden values captured from the tree BEFORE the zero-copy hot-path
  // rework (shared payloads, flat hot log / tracker / retained buffer,
  // move-based event loop), same scenario, seed 12345. The rework is a
  // pure representation change: consistency points, commit counts, event
  // schedule, and wire traffic must be bit-identical. If an intentional
  // protocol change shifts these, re-capture the constants and say so in
  // the commit message.
  const RunFingerprint fp = RunScenario(12345);
  EXPECT_EQ(fp.vcl, 1073742020u);
  EXPECT_EQ(fp.vdl, 1073742020u);
  EXPECT_EQ(fp.epoch, 2u);
  EXPECT_EQ(fp.commits, 60u);
  EXPECT_EQ(fp.end_time, 692844);
  EXPECT_EQ(fp.net_bytes, 242654u);
  EXPECT_EQ(fp.executed_events, 3015u);
  // Schedule fingerprint over every executed (time, label) pair, captured
  // from the tree BEFORE the slab event-engine rewrite (PR 5). The engine
  // overhaul must not reorder, add, or drop a single event.
  EXPECT_EQ(fp.schedule_fingerprint, 16195899942373876204ULL);
}

TEST(Determinism, DifferentSeedsDivergeInTiming) {
  const RunFingerprint a = RunScenario(111);
  const RunFingerprint b = RunScenario(222);
  // Logical outcomes match (same workload) but timing/traffic differ.
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_NE(a.end_time, b.end_time);
}

// ---------------------------------------------------------------------------
// Full cluster under failure-injector chaos: scripted crash/restart, an AZ
// blip and a flapping node during one long run phase.

struct ChaosOutcome {
  uint64_t fingerprint = 0;
  Lsn vcl = 0;
  Lsn vdl = 0;
  uint64_t commits = 0;
  uint64_t executed = 0;
  SimTime end = 0;
  uint64_t node_failures = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome RunChaosScenario(uint64_t seed) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  options.storage_nodes_per_az = 2;
  core::AuroraCluster cluster(options);
  EXPECT_TRUE(cluster.StartBlocking().ok());
  for (int i = 0; i < 10; ++i) {
    (void)cluster.PutBlocking("warm" + std::to_string(i % 7),
                              "v" + std::to_string(i));
  }

  const std::vector<NodeId> nodes = cluster.StorageNodeIds();
  sim::FailureInjector& injector = cluster.failures();
  const SimTime t0 = cluster.sim().Now();
  const NodeId victim = nodes[seed % nodes.size()];
  const NodeId flapper = nodes[(seed + 2) % nodes.size()];
  injector.CrashNodeAt(t0 + 5 * kMillisecond, victim);
  injector.RestartNodeAt(t0 + 45 * kMillisecond, victim);
  injector.FailAzAt(t0 + 60 * kMillisecond, 1, 25 * kMillisecond);
  if (flapper != victim) {
    injector.Flap(flapper, 8 * kMillisecond, 3);
  }
  cluster.RunFor(400 * kMillisecond);

  ChaosOutcome out;
  out.fingerprint = cluster.sim().ScheduleFingerprint();
  out.vcl = cluster.writer()->vcl();
  out.vdl = cluster.writer()->vdl();
  out.commits = cluster.writer()->stats().commits_acked;
  out.executed = cluster.sim().ExecutedEvents();
  out.end = cluster.sim().Now();
  out.node_failures = injector.node_failures();
  return out;
}

TEST(Determinism, ClusterChaosSweepReplaysPerSeed) {
  for (uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
    const ChaosOutcome first = RunChaosScenario(seed);
    ASSERT_GT(first.commits, 0u) << "seed " << seed;
    ASSERT_GT(first.node_failures, 0u) << "seed " << seed;
    EXPECT_EQ(RunChaosScenario(seed), first) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Read-heavy mix through client sessions: hedged reads, exactly-once
// completion, and late-response cancellation.
//
// Replicas run with tiny caches so Zipf-skewed session reads miss and go
// to storage; one slowed storage node plus a scripted crash/restart force
// the driver's hedge timers and failure-retry path to fire.

struct ReadHeavyOutcome {
  uint64_t fingerprint = 0;
  uint64_t executed = 0;
  SimTime end = 0;
  uint64_t gets_done = 0;
  uint64_t puts_done = 0;
  uint64_t replica_reads = 0;
  uint64_t fallbacks = 0;
  uint64_t hedges = 0;
  uint64_t double_fires = 0;
  uint64_t value_hash = 0;

  bool operator==(const ReadHeavyOutcome&) const = default;
};

// One callback-chained client workload: at most one operation in flight,
// so its Rng/Zipf draws are totally ordered by the schedule.
struct ReadHeavyClient {
  std::unique_ptr<core::ClientSession> session;
  Rng rng{0};
  ZipfianGenerator zipf{1, 0.99};
  uint64_t ops_started = 0;
  uint64_t gets_done = 0;
  uint64_t puts_done = 0;
  uint64_t double_fires = 0;
  uint64_t value_hash = 0;
  std::vector<uint8_t> fired;  // per-op completion count (exactly-once)

  void Pump(sim::Simulator* simulator, SimTime deadline, int keys) {
    if (simulator->Now() >= deadline - kMillisecond) return;
    const uint64_t op = ops_started++;
    if (op >= fired.size()) fired.resize(op + 1, 0);
    char key[16];
    std::snprintf(key, sizeof(key), "z%04d",
                  static_cast<int>(zipf.Next(rng)) % keys);
    auto next = [this, simulator, deadline, keys, op](uint64_t h) {
      if (fired[op]++ > 0) {  // a cancelled hedge leaked a second callback
        double_fires++;
        return;
      }
      value_hash = value_hash * 1099511628211ULL ^ h;
      simulator->Schedule(200 + rng.Next() % 300, [this, simulator, deadline,
                                                   keys] {
        Pump(simulator, deadline, keys);
      });
    };
    if (rng.Next() % 5 == 0) {  // 20% updates
      session->Put(key, "u" + std::to_string(op), [this, next](Status st) {
        if (st.ok()) puts_done++;
        next(st.ok() ? 1 : 2);
      });
    } else {
      session->Get(key, [this, next](Result<std::string> r) {
        if (r.ok()) gets_done++;
        next(r.ok() ? std::hash<std::string>{}(*r) : 3);
      });
    }
  }
};

ReadHeavyOutcome RunReadHeavyScenario(uint64_t seed) {
  constexpr int kKeys = 240;
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  options.replica.cache_pages = 24;  // working set >> cache: storage reads
  core::AuroraCluster cluster(options);
  EXPECT_TRUE(cluster.StartBlocking().ok());

  for (int i = 0; i < kKeys; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "z%04d", i);
    EXPECT_TRUE(cluster.PutBlocking(key, "seed").ok());
  }
  std::vector<replica::ReadReplica*> reps;
  for (int i = 0; i < 3; ++i) reps.push_back(cluster.AddReplica());
  cluster.RunFor(100 * kMillisecond);  // replicas prime their VDL

  // One slow storage node (hedge timers fire against it) and a scripted
  // crash/restart (explicit-failure retry + late-response cancellation).
  const std::vector<NodeId> nodes = cluster.StorageNodeIds();
  cluster.network().SetNodeSlowdown(nodes[seed % nodes.size()], 25.0);
  const NodeId victim = nodes[(seed + 3) % nodes.size()];
  const SimTime t0 = cluster.sim().Now();
  cluster.failures().CrashNodeAt(t0 + 40 * kMillisecond, victim);
  cluster.failures().RestartNodeAt(t0 + 120 * kMillisecond, victim);

  constexpr SimDuration kRunFor = 300 * kMillisecond;
  const SimTime deadline = cluster.sim().Now() + kRunFor;
  std::vector<std::unique_ptr<ReadHeavyClient>> clients;
  for (int c = 0; c < 3; ++c) {
    auto client = std::make_unique<ReadHeavyClient>();
    core::SessionOptions session_options;
    session_options.replica_offset = c;
    client->session = std::make_unique<core::ClientSession>(
        &cluster, static_cast<AzId>(c % 3), session_options);
    client->rng = Rng(seed * 1000 + c);
    client->zipf = ZipfianGenerator(kKeys, 0.99);
    ReadHeavyClient* raw = client.get();
    cluster.sim().Schedule(
        kMillisecond + c * 37,
        [raw, &cluster, deadline] {
          raw->Pump(&cluster.sim(), deadline, kKeys);
        },
        "readheavy.start");
    clients.push_back(std::move(client));
  }
  cluster.RunFor(kRunFor);

  ReadHeavyOutcome out;
  out.fingerprint = cluster.sim().ScheduleFingerprint();
  out.executed = cluster.sim().ExecutedEvents();
  out.end = cluster.sim().Now();
  out.hedges = cluster.writer()->driver()->router().hedged_reads();
  for (auto* rep : reps) {
    out.hedges += rep->driver()->router().hedged_reads();
  }
  for (const auto& client : clients) {
    out.gets_done += client->gets_done;
    out.puts_done += client->puts_done;
    out.double_fires += client->double_fires;
    out.replica_reads += client->session->stats().replica_reads;
    out.fallbacks += client->session->stats().writer_fallbacks;
    out.value_hash = out.value_hash * 31 ^ client->value_hash;
    for (uint64_t op = 0; op + 1 < client->ops_started; ++op) {
      // Every op except possibly the last (in flight at the deadline)
      // completed exactly once.
      EXPECT_EQ(client->fired[op], 1u) << "op " << op << " of session "
                                       << client->session->node();
    }
  }
  return out;
}

TEST(Determinism, ReadHeavyHedgedSweep) {
  for (uint64_t seed : {31u, 32u}) {
    const ReadHeavyOutcome first = RunReadHeavyScenario(seed);
    ASSERT_GT(first.gets_done, 50u) << "seed " << seed;
    ASSERT_GT(first.puts_done, 5u) << "seed " << seed;
    ASSERT_GT(first.replica_reads, 0u) << "seed " << seed;
    ASSERT_GT(first.hedges, 0u)
        << "seed " << seed << ": the slow node must trigger hedges";
    ASSERT_EQ(first.double_fires, 0u)
        << "seed " << seed << ": a hedge pair must resolve exactly once";
    EXPECT_EQ(RunReadHeavyScenario(seed), first) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aurora
