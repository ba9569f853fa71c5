// Experiment C3 — §3.1 claim: avoiding the read-quorum amplification.
//
// "A buffer cache miss in Aurora's quorum model would seem to require a
// minimum of three read I/Os, and likely five, to mask outlier latency...
// Aurora does not do quorum reads. The database instance knows which
// segments have the last durable version of a data block and can request
// it directly... The database instance will usually issue a request to the
// segment with the lowest measured latency... If a request is taking
// longer than expected, it will issue a read to another storage node and
// accept whichever one returns first."
//
// The table compares, for a point-read workload with cold cache:
//   (a) Aurora routed read (+hedging),
//   (b) a Vr=3 quorum read (wait for 3 of 6 responses),
// under a healthy fleet and with one slow storage node.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct ReadResult {
  Histogram latency;
  uint64_t ios = 0;
  uint64_t reads = 0;
  uint64_t hedges = 0;
};

core::AuroraCluster* MakeLoadedCluster(uint64_t seed, bool slow_node) {
  core::AuroraOptions options;
  options.seed = seed;
  options.blocks_per_pg = 1 << 16;
  options.db.cache_pages = 64;  // small cache: reads go to storage
  auto* cluster = new core::AuroraCluster(options);
  if (!cluster->StartBlocking().ok()) return cluster;
  for (int i = 0; i < 400; ++i) {
    (void)cluster->PutBlocking("key" + std::to_string(i), "v");
  }
  cluster->RunFor(kSecond);  // coalesce everywhere
  if (slow_node) {
    cluster->network().SetNodeSlowdown(
        cluster->StorageNodeIds()[0], 15.0);
  }
  return cluster;
}

// (a) Aurora routed reads: the driver's normal block-read path (latency
// tracking + hedging), reading the same block the quorum baseline reads.
ReadResult AuroraReads(core::AuroraCluster& cluster, int n) {
  ReadResult result;
  auto* driver = cluster.writer()->driver();
  const uint64_t ios_before = driver->stats().reads_issued;
  const BlockId block = engine::kFirstAllocatableBlock;
  const Lsn read_lsn = cluster.writer()->vdl();
  for (int i = 0; i < n; ++i) {
    const SimTime start = cluster.sim().Now();
    bool done = false;
    driver->ReadBlock(block, read_lsn,
                      [&](Result<storage::Page> page) {
                        if (page.ok()) {
                          result.latency.Record(cluster.sim().Now() - start);
                          result.reads++;
                        }
                        done = true;
                      });
    cluster.RunUntil([&]() { return done; }, 5 * kSecond);
  }
  result.ios = driver->stats().reads_issued - ios_before;
  result.hedges = driver->router().hedged_reads();
  return result;
}

// (b) Quorum read baseline: for each read, issue the block read to THREE
// random full segments and wait for all three (take the newest version).
ReadResult QuorumReads(core::AuroraCluster& cluster, int n) {
  ReadResult result;
  Rng rng(6);
  auto* writer = cluster.writer();
  const auto& pg = cluster.geometry().Pg(0);
  std::vector<quorum::SegmentInfo> fulls;
  for (const auto& m : pg.AllMembers()) {
    if (m.is_full) fulls.push_back(m);
  }
  const Lsn read_lsn = writer->vdl();
  for (int i = 0; i < n; ++i) {
    // Read a random known leaf block via three segments.
    const BlockId block = engine::kFirstAllocatableBlock;
    auto pending = std::make_shared<int>(3);
    auto done = std::make_shared<bool>(false);
    const SimTime start = cluster.sim().Now();
    // Choose 3 distinct segments.
    std::vector<size_t> order(fulls.size());
    for (size_t j = 0; j < order.size(); ++j) order[j] = j;
    for (size_t j = order.size(); j > 1; --j) {
      std::swap(order[j - 1], order[rng.NextBounded(j)]);
    }
    for (int j = 0; j < 3; ++j) {
      const auto& target = fulls[order[j]];
      storage::ReadPageRequest request;
      request.segment = target.id;
      request.epochs = EpochVector{writer->volume_epoch(), pg.epoch()};
      request.block = block;
      request.read_lsn = read_lsn;
      result.ios++;
      auto* node = cluster.node(target.node);
      sim::UnaryCall<storage::ReadPageResponse>(
          &cluster.network(), writer->id(), target.node,
          request.SerializedSize(),
          [node, request](sim::ReplyFn<storage::ReadPageResponse> reply) {
            if (node == nullptr) {
              reply(storage::ReadPageResponse{
                  Status::Unavailable("no node"), {}});
              return;
            }
            node->HandleReadPage(request, std::move(reply));
          },
          [](const storage::ReadPageResponse& r) {
            return r.SerializedSize();
          },
          [pending, done, start, &result,
           &cluster](storage::ReadPageResponse) {
            if (--*pending == 0 && !*done) {
              *done = true;
              result.latency.Record(cluster.sim().Now() - start);
              result.reads++;
            }
          });
    }
    cluster.RunUntil([&]() { return *done; }, 5 * kSecond);
  }
  return result;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_ReadRouterRank(benchmark::State& state) {
  aurora::engine::ReadRouter router;
  aurora::Rng rng(1);
  for (aurora::SegmentId s = 0; s < 6; ++s) {
    router.ObserveLatency(s, 200 + s * 100);
  }
  std::vector<aurora::SegmentId> eligible = {0, 1, 2, 3, 4, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Rank(eligible, rng));
  }
}
BENCHMARK(BM_ReadRouterRank);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;
  using aurora::bench::Us;

  Table table("C3: cold-cache point reads — routed single read vs 3/6 "
              "quorum read (300 reads per cell)");
  table.Columns({"fleet", "strategy", "p50", "p99", "I/Os per read",
                 "hedges"});
  for (bool slow : {false, true}) {
    {
      auto* cluster = aurora::MakeLoadedCluster(21, slow);
      auto r = aurora::AuroraReads(*cluster, 300);
      table.Row({slow ? "one 15x-slow node" : "healthy",
                 "Aurora routed + hedged", Us(r.latency.P50()),
                 Us(r.latency.P99()),
                 Num(r.reads ? static_cast<double>(r.ios) / r.reads : 0, 2),
                 std::to_string(r.hedges)});
      delete cluster;
    }
    {
      auto* cluster = aurora::MakeLoadedCluster(22, slow);
      auto r = aurora::QuorumReads(*cluster, 300);
      table.Row({slow ? "one 15x-slow node" : "healthy",
                 "quorum read (wait for 3/6)", Us(r.latency.P50()),
                 Us(r.latency.P99()),
                 Num(r.reads ? static_cast<double>(r.ios) / r.reads : 0, 2),
                 "-"});
      delete cluster;
    }
  }
  table.Print();
  std::printf(
      "(The quorum read pays 3x the I/O on every read and its latency is\n"
      " the MAX of three responses; the routed read pays ~1 I/O and hedges\n"
      " only when the chosen segment is slow, capping the p99.)\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
