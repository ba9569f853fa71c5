// Sharded parallel event engine (DESIGN.md §9) — engine-level contract.
//
// The tentpole guarantee: for a fixed sharded simulator, the serial
// canonical executor (Run/RunUntil/Step) and the windowed parallel
// executor (RunSharded) produce the SAME execution — same schedule
// fingerprint, same executed-event count, same actor state — for every
// worker-thread count. And with a single shard, the sharded engine is
// bit-identical to the classic unsharded engine.
//
// The mesh below is a worst-case synthetic actor graph: per-shard tickers
// with coprime periods (constant same-time collisions across shards),
// cross-shard sends at exactly the lookahead bound, and a chain of global
// events that read cross-shard state at barriers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace aurora::sim {
namespace {

// Deterministic parameter hash (no RNG: draws must not depend on execution
// interleaving, so every delay is a pure function of (seed, shard, tick)).
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = a * 0x9e3779b97f4a7c15ULL ^ (b + 0xbf58476d1ce4e5b9ULL) * 31 ^
               (c + 0x94d049bb133111ebULL) * 127;
  h ^= h >> 31;
  h *= 0x2545f4914f6cdd1dULL;
  h ^= h >> 29;
  return h;
}

constexpr SimDuration kLookahead = 25;
constexpr SimTime kDeadline = 20000;

struct MeshState {
  std::vector<uint64_t> local_ticks;
  std::vector<uint64_t> remote_hits;
  std::vector<uint64_t> global_snapshots;
  // Per sending shard: EventId returned by its last cross-shard ScheduleOn
  // (mailbox sends are uncancellable and return kInvalidEvent; serial
  // direct inserts return a real id). Indexed by sender so concurrent
  // workers never touch the same slot.
  std::vector<EventId> last_cross_id;
  std::vector<uint8_t> saw_cross_send;
};

void Tick(Simulator* sim, MeshState* st, uint64_t seed, uint32_t shard,
          uint32_t nshards, uint64_t tick) {
  st->local_ticks[shard]++;
  if (sim->Now() >= kDeadline - 200) return;
  if (nshards > 1 && tick % 3 == 0) {
    const uint32_t dst = (shard + 1 + tick / 3) % nshards;
    if (dst != shard) {
      st->saw_cross_send[shard] = 1;
      st->last_cross_id[shard] = sim->ScheduleOn(
          dst, kLookahead + Mix(seed, shard, tick) % 40,
          [st, dst] { st->remote_hits[dst]++; }, "mesh.remote");
    }
  }
  sim->Schedule(
      1 + Mix(seed, shard, tick * 2 + 1) % 37,
      [sim, st, seed, shard, nshards, tick] {
        Tick(sim, st, seed, shard, nshards, tick + 1);
      },
      "mesh.tick");
}

void GlobalPulse(Simulator* sim, MeshState* st, uint64_t seed, int remaining) {
  // Reads cross-shard state: only legal because global events execute at
  // exact-key barriers with every shard quiesced.
  uint64_t sum = 0;
  for (uint64_t v : st->local_ticks) sum = sum * 31 + v;
  for (uint64_t v : st->remote_hits) sum = sum * 31 + v;
  st->global_snapshots.push_back(sum);
  if (remaining > 0) {
    sim->ScheduleGlobal(
        211 + Mix(seed, 0xA0, remaining) % 97,
        [sim, st, seed, remaining] {
          GlobalPulse(sim, st, seed, remaining - 1);
        },
        "mesh.global");
  }
}

struct MeshResult {
  uint64_t fingerprint = 0;
  uint64_t executed = 0;
  SimTime end = 0;
  size_t pending = 0;
  MeshState state;
};

// threads == 0: serial canonical RunUntil. threads >= 1: RunSharded.
// nshards == 0: classic unsharded engine (no ConfigureShards call).
MeshResult RunMesh(uint64_t seed, uint32_t nshards, int threads) {
  Simulator sim(seed + 1);
  const uint32_t effective = nshards == 0 ? 1 : nshards;
  if (nshards > 0) {
    sim.ConfigureShards(nshards);
    sim.SetLookahead(kLookahead);
  }
  auto st = std::make_unique<MeshState>();
  st->local_ticks.assign(effective, 0);
  st->remote_hits.assign(effective, 0);
  st->last_cross_id.assign(effective, kInvalidEvent);
  st->saw_cross_send.assign(effective, 0);
  for (uint32_t s = 0; s < effective; ++s) {
    Simulator::ShardScope scope(&sim, nshards > 0 ? s : 0);
    sim.Schedule(
        1 + s,
        [sim_p = &sim, st_p = st.get(), seed, s, effective] {
          Tick(sim_p, st_p, seed, s, effective, 0);
        },
        "mesh.start");
  }
  sim.ScheduleGlobal(
      97, [sim_p = &sim, st_p = st.get(), seed] { GlobalPulse(sim_p, st_p, seed, 50); },
      "mesh.global");

  if (threads == 0) {
    sim.RunUntil(kDeadline);
  } else {
    sim.RunSharded(kDeadline, threads);
  }

  MeshResult r;
  r.fingerprint = sim.ScheduleFingerprint();
  r.executed = sim.ExecutedEvents();
  r.end = sim.Now();
  r.pending = sim.PendingEvents();
  r.state = *st;
  return r;
}

bool AnyCrossSend(const MeshState& st) {
  for (uint8_t v : st.saw_cross_send) {
    if (v) return true;
  }
  return false;
}

void ExpectSameExecution(const MeshResult& a, const MeshResult& b,
                         const char* what) {
  EXPECT_EQ(a.fingerprint, b.fingerprint) << what;
  EXPECT_EQ(a.executed, b.executed) << what;
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.state.local_ticks, b.state.local_ticks) << what;
  EXPECT_EQ(a.state.remote_hits, b.state.remote_hits) << what;
  EXPECT_EQ(a.state.global_snapshots, b.state.global_snapshots) << what;
}

TEST(ParallelEngine, SingleShardIsBitIdenticalToUnsharded) {
  // ConfigureShards(1) is the determinism oracle: same stamps, same
  // order, same fingerprint as the classic engine — and RunSharded(1)
  // on it must change nothing either.
  const MeshResult classic = RunMesh(42, 0, 0);
  const MeshResult oracle_serial = RunMesh(42, 1, 0);
  const MeshResult oracle_windowed = RunMesh(42, 1, 1);
  EXPECT_GT(classic.executed, 1000u);
  ExpectSameExecution(classic, oracle_serial, "sharded(1) serial vs classic");
  ExpectSameExecution(classic, oracle_windowed,
                      "sharded(1) windowed vs classic");
}

TEST(ParallelEngine, ParallelMatchesSerialForEveryThreadCount) {
  for (uint32_t nshards : {2u, 3u, 4u}) {
    const MeshResult serial = RunMesh(7, nshards, 0);
    ASSERT_GT(serial.executed, 1000u);
    ASSERT_TRUE(AnyCrossSend(serial.state));
    ASSERT_GT(serial.state.global_snapshots.size(), 10u);
    for (int threads : {1, 2, 4, 8}) {
      const MeshResult parallel = RunMesh(7, nshards, threads);
      ExpectSameExecution(serial, parallel,
                          ("shards=" + std::to_string(nshards) +
                           " threads=" + std::to_string(threads))
                              .c_str());
      EXPECT_EQ(parallel.pending, 0u);
    }
  }
}

TEST(ParallelEngine, CrossShardMailboxSendsAreUncancellable) {
  // Serial canonical execution inserts cross-shard events directly (real
  // EventId); during windowed execution they travel by mailbox and the
  // send returns kInvalidEvent. Both produce the same schedule.
  const MeshResult serial = RunMesh(9, 2, 0);
  const MeshResult windowed = RunMesh(9, 2, 2);
  ASSERT_TRUE(AnyCrossSend(serial.state));
  ASSERT_TRUE(AnyCrossSend(windowed.state));
  for (uint32_t s = 0; s < 2; ++s) {
    if (serial.state.saw_cross_send[s]) {
      EXPECT_NE(serial.state.last_cross_id[s], kInvalidEvent) << s;
    }
    if (windowed.state.saw_cross_send[s]) {
      EXPECT_EQ(windowed.state.last_cross_id[s], kInvalidEvent) << s;
    }
  }
  EXPECT_EQ(serial.fingerprint, windowed.fingerprint);
}

TEST(ParallelEngine, CancelAcrossShards) {
  Simulator sim(3);
  sim.ConfigureShards(3);
  sim.SetLookahead(10);

  std::vector<int> fired(6, 0);
  std::vector<EventId> ids;
  for (uint32_t s = 0; s < 3; ++s) {
    Simulator::ShardScope scope(&sim, s);
    for (int k = 0; k < 2; ++k) {
      const size_t slot = s * 2 + k;
      ids.push_back(sim.Schedule(
          100 + 10 * static_cast<SimDuration>(slot),
          [&fired, slot] { fired[slot]++; }, "cancel.probe"));
    }
  }
  EXPECT_EQ(sim.PendingEvents(), 6u);

  // Cancel one event per shard; tombstones linger until reclaimed.
  sim.Cancel(ids[1]);
  sim.Cancel(ids[2]);
  sim.Cancel(ids[5]);
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_EQ(sim.DeadHeapEntriesForTest(), 3u);

  // Double-cancel and stale ids are harmless no-ops.
  sim.Cancel(ids[1]);
  sim.Cancel(kInvalidEvent);
  EXPECT_EQ(sim.PendingEvents(), 3u);

  sim.RunSharded(1000, 2);
  EXPECT_EQ(fired, (std::vector<int>{1, 0, 0, 1, 1, 0}));
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.DeadHeapEntriesForTest(), 0u);

  // An id from a long-fired event is stale by generation: cancelling it
  // must not disturb anything scheduled afterwards.
  sim.Cancel(ids[0]);
  bool late = false;
  {
    Simulator::ShardScope scope(&sim, 0);
    sim.Schedule(5, [&late] { late = true; }, "cancel.late");
  }
  sim.Cancel(ids[3]);
  sim.RunSharded(sim.Now() + 100, 1);
  EXPECT_TRUE(late);
}

TEST(ParallelEngine, PendingAndExecutedAggregateAllQueues) {
  Simulator sim(5);
  sim.ConfigureShards(2);
  sim.SetLookahead(5);
  // Atomic: the two shard events share a time and run on two workers.
  std::atomic<int> hits = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    Simulator::ShardScope scope(&sim, s);
    sim.Schedule(10, [&hits] { hits++; }, "agg.shard");
  }
  sim.ScheduleGlobal(20, [&hits] { hits++; }, "agg.global");
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.RunSharded(100, 2);
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(sim.ExecutedEvents(), 3u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(ParallelEngine, RunShardedLandsClockOnDeadline) {
  Simulator sim(8);
  sim.ConfigureShards(2);
  sim.SetLookahead(5);
  {
    Simulator::ShardScope scope(&sim, 1);
    sim.Schedule(10, [] {}, "clock.one");
  }
  sim.RunSharded(500, 2);
  EXPECT_EQ(sim.Now(), 500);
  // And a second leg continues from there.
  sim.RunShardedFor(250, 2);
  EXPECT_EQ(sim.Now(), 750);
}

// ---------------------------------------------------------------------------
// Pairwise lookahead matrix + batched-mailbox engine stats.
//
// A second mesh whose cross-shard delays size themselves with
// Simulator::LookaheadTo — the contract every non-network cross-shard
// hop must follow once the matrix replaces the scalar bound.

struct PairMesh {
  std::vector<uint64_t> cells;
  std::vector<uint64_t> cross_sends;
};

void PairTick(Simulator* sim, PairMesh* st, uint64_t seed, uint32_t shard,
              uint32_t nshards, uint64_t tick) {
  st->cells[shard] = st->cells[shard] * 0x9e3779b97f4a7c15ULL + tick + 1;
  if (sim->Now() >= kDeadline - 300) return;
  if (tick % 2 == 0) {
    const uint32_t dst = (shard + 1 + tick / 2) % nshards;
    if (dst != shard) {
      st->cross_sends[shard]++;
      sim->ScheduleOn(
          dst, sim->LookaheadTo(dst) + Mix(seed, shard, tick) % 23,
          [st, dst] { st->cells[dst] ^= 0x5bd1e995; }, "pair.remote");
    }
  }
  sim->Schedule(
      1 + Mix(seed, shard, tick * 2 + 1) % 13,
      [sim, st, seed, shard, nshards, tick] {
        PairTick(sim, st, seed, shard, nshards, tick + 1);
      },
      "pair.tick");
}

struct PairResult {
  uint64_t fingerprint = 0;
  uint64_t executed = 0;
  uint64_t state_hash = 0;
  uint64_t cross_sends = 0;
  Simulator::EngineStats stats;
};

// matrix_bonus < 0: scalar lookahead only. Otherwise entry (s, d) is
// kLookahead + matrix_bonus + ((s * 3 + d) % 3) * 20 — asymmetric, and
// with matrix_bonus == 0 the (s, d) = (0, 1)-class entries equal the
// scalar bound exactly.
PairResult RunPairMesh(uint64_t seed, int threads, int matrix_bonus) {
  constexpr uint32_t kShards = 3;
  Simulator sim(seed);
  sim.ConfigureShards(kShards);
  sim.SetLookahead(kLookahead);
  if (matrix_bonus >= 0) {
    for (uint32_t s = 0; s < kShards; ++s) {
      for (uint32_t d = 0; d < kShards; ++d) {
        if (s == d) continue;
        sim.SetPairwiseLookahead(
            s, d, kLookahead + matrix_bonus + ((s * 3 + d) % 3) * 20);
      }
    }
  }
  auto st = std::make_unique<PairMesh>();
  st->cells.assign(kShards, seed);
  st->cross_sends.assign(kShards, 0);
  for (uint32_t s = 0; s < kShards; ++s) {
    Simulator::ShardScope scope(&sim, s);
    sim.Schedule(
        1 + s,
        [sim_p = &sim, st_p = st.get(), seed, s] {
          PairTick(sim_p, st_p, seed, s, kShards, 0);
        },
        "pair.start");
  }
  if (threads == 0) {
    sim.RunUntil(kDeadline);
  } else {
    sim.RunSharded(kDeadline, threads);
  }
  PairResult r;
  r.fingerprint = sim.ScheduleFingerprint();
  r.executed = sim.ExecutedEvents();
  for (uint64_t c : st->cells) r.state_hash = r.state_hash * 31 + c;
  for (uint64_t c : st->cross_sends) r.cross_sends += c;
  r.stats = sim.engine_stats();
  return r;
}

TEST(ParallelEngine, PairwiseLookaheadMatchesSerial) {
  // Asymmetric matrix (entries 45/65/85 vs scalar 25): the windowed
  // engine must still execute the exact serial canonical schedule.
  const PairResult serial = RunPairMesh(13, 0, 20);
  ASSERT_GT(serial.executed, 1000u);
  ASSERT_GT(serial.cross_sends, 100u);
  for (int threads : {1, 2, 4, 8}) {
    const PairResult parallel = RunPairMesh(13, threads, 20);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint) << threads;
    EXPECT_EQ(parallel.executed, serial.executed) << threads;
    EXPECT_EQ(parallel.state_hash, serial.state_hash) << threads;
  }
}

TEST(ParallelEngine, WiderMatrixEntriesMeanFewerWindows) {
  // Raising every pairwise entry above the scalar bound must widen the
  // conservative windows — strictly fewer barrier crossings for the
  // same wall of simulated time.
  const PairResult scalar = RunPairMesh(13, 2, -1);
  const PairResult wide = RunPairMesh(13, 2, 20);
  ASSERT_GT(scalar.stats.windows, 0u);
  EXPECT_LT(wide.stats.windows, scalar.stats.windows);
}

TEST(ParallelEngine, PairwiseGettersAndContextFallback) {
  Simulator sim(1);
  sim.ConfigureShards(3);
  sim.SetLookahead(25);
  EXPECT_EQ(sim.PairwiseLookahead(0, 1), 25);  // unset matrix: scalar
  sim.SetPairwiseLookahead(0, 1, 70);
  sim.SetPairwiseLookahead(1, 0, 40);
  EXPECT_EQ(sim.PairwiseLookahead(0, 1), 70);
  EXPECT_EQ(sim.PairwiseLookahead(1, 0), 40);
  EXPECT_EQ(sim.PairwiseLookahead(0, 2), 25);  // untouched pair: scalar
  // Outside any shard context LookaheadTo degrades to the scalar bound.
  EXPECT_EQ(sim.LookaheadTo(1), 25);
  // SetLookahead resets the matrix.
  sim.SetLookahead(30);
  EXPECT_EQ(sim.PairwiseLookahead(0, 1), 30);
}

TEST(ParallelEngine, EngineStatsCountWindowsAndMailboxTraffic) {
  // Windowed execution batches every cross-shard send into the source
  // shard's outbox: total mailed messages must equal the cross sends the
  // mesh made, batches can't exceed messages, and the serial path (direct
  // heap inserts, no windows) must report zeros.
  const PairResult serial = RunPairMesh(21, 0, 0);
  EXPECT_EQ(serial.stats.windows, 0u);
  EXPECT_EQ(serial.stats.mailbox_batches, 0u);
  EXPECT_EQ(serial.stats.mailbox_msgs, 0u);
  ASSERT_GT(serial.cross_sends, 100u);

  const PairResult windowed = RunPairMesh(21, 4, 0);
  EXPECT_EQ(windowed.fingerprint, serial.fingerprint);
  EXPECT_GT(windowed.stats.windows, 0u);
  EXPECT_EQ(windowed.stats.mailbox_msgs, windowed.cross_sends);
  EXPECT_GE(windowed.stats.mailbox_batches, 1u);
  EXPECT_LE(windowed.stats.mailbox_batches, windowed.stats.mailbox_msgs);
}

// ---------------------------------------------------------------------------
// Worker-pool round-handoff stress: 8 shards with a 2us lookahead gives
// thousands of tiny claim rounds per leg, and back-to-back RunShardedFor
// legs re-broadcast the round counter constantly. A stale claim from a
// previous round shows up as a TSan race or a divergence from the serial
// reference schedule. (This binary is part of the TSan sweep.)

void TinyTick(Simulator* sim, std::vector<uint64_t>* cells, uint32_t shard,
              uint64_t tick, SimTime deadline) {
  (*cells)[shard] += tick * 0x9e3779b97f4a7c15ULL + 1;
  if (sim->Now() >= deadline - 10) return;
  if (tick % 5 == 0) {
    const uint32_t dst =
        (shard + 1 + tick / 5) % static_cast<uint32_t>(cells->size());
    if (dst != shard) {
      sim->ScheduleOn(
          dst, sim->LookaheadTo(dst) + tick % 7,
          [cells, dst] { (*cells)[dst] ^= 0x2545f4914f6cdd1dULL; },
          "tiny.remote");
    }
  }
  sim->Schedule(
      1 + tick % 3,
      [sim, cells, shard, tick, deadline] {
        TinyTick(sim, cells, shard, tick + 1, deadline);
      },
      "tiny.tick");
}

TEST(ParallelEngine, RepeatedTinyWindowRoundHandoff) {
  constexpr SimTime kEnd = 4000;
  auto run = [](int threads) {
    Simulator sim(77);
    sim.ConfigureShards(8);
    sim.SetLookahead(2);
    std::vector<uint64_t> cells(8, 1);
    for (uint32_t s = 0; s < 8; ++s) {
      Simulator::ShardScope scope(&sim, s);
      sim.Schedule(
          1 + s % 2,
          [sim_p = &sim, cells_p = &cells, s] {
            TinyTick(sim_p, cells_p, s, 0, kEnd);
          },
          "tiny.start");
    }
    if (threads == 0) {
      sim.RunUntil(kEnd);
    } else {
      for (int leg = 0; leg < 40; ++leg) sim.RunShardedFor(100, threads);
    }
    uint64_t hash = sim.ScheduleFingerprint();
    for (uint64_t c : cells) hash = hash * 31 + c;
    return std::pair<uint64_t, uint64_t>(hash, sim.ExecutedEvents());
  };
  const auto serial = run(0);
  ASSERT_GT(serial.second, 5000u);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    EXPECT_EQ(parallel.first, serial.first) << "threads " << threads;
    EXPECT_EQ(parallel.second, serial.second) << "threads " << threads;
  }
}

#ifdef GTEST_HAS_DEATH_TEST
TEST(ParallelEngineDeath, CrossShardSendBelowLookaheadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulator sim(1);
        sim.ConfigureShards(2);
        sim.SetLookahead(50);
        {
          Simulator::ShardScope scope(&sim, 0);
          sim.Schedule(
              10,
              [&sim] {
                // Worker-context cross-shard send under the lookahead
                // bound violates the conservative-synchronization
                // contract; the engine must refuse loudly, not corrupt
                // the canonical order.
                sim.ScheduleOn(1, 5, [] {}, "bad.send");
              },
              "bad.parent");
        }
        sim.RunUntil(100);
      },
      "lookahead");
}
#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace aurora::sim
