// Experiment C8 — §2.2 claim: "the only writes that cross the network from
// the database instance to the storage node are redo log records. No data
// blocks are written from the database instance, not for background
// writes, not for checkpointing, and not for cache eviction."
//
// Table: bytes on the wire per committed transaction for (a) Aurora
// (log-only to six segments) and (b) a traditional primary shipping full
// dirty pages to standbys (2x and 4x), on identical workloads.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "src/baseline/sync_replication.h"

namespace aurora {
namespace {

struct TrafficRow {
  std::string name;
  uint64_t txns = 0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
};

TrafficRow AuroraTraffic(int txns) {
  core::AuroraOptions options;
  options.seed = 909;
  options.blocks_per_pg = 1 << 16;
  core::AuroraCluster cluster(options);
  TrafficRow row;
  row.name = "Aurora (redo to 6 segments)";
  if (!cluster.StartBlocking().ok()) return row;
  (void)bench::RunClosedLoopWrites(cluster, 64, "warm");
  cluster.RunFor(kSecond);
  cluster.network().ResetStats();
  for (int i = 0; i < txns; ++i) {
    (void)cluster.PutBlocking("k" + std::to_string(i % 256),
                              std::string(200, 'v'));
  }
  row.txns = txns;
  row.bytes = cluster.network().stats().bytes_sent;
  row.messages = cluster.network().stats().messages_sent;
  return row;
}

TrafficRow PageShippingTraffic(int txns, int standbys) {
  sim::Simulator sim(910);
  sim::Network net(&sim);
  std::vector<std::unique_ptr<baseline::Standby>> standby_objs;
  std::vector<baseline::Standby*> raw;
  for (int i = 0; i < standbys; ++i) {
    standby_objs.push_back(std::make_unique<baseline::Standby>(
        &sim, &net, 10 + i, static_cast<AzId>(i % 3)));
    raw.push_back(standby_objs.back().get());
  }
  baseline::PageShippingOptions options;
  options.synchronous = true;
  baseline::PageShippingPrimary primary(&sim, &net, 1, 0, raw, options);
  TrafficRow row;
  row.name = "page shipping to " + std::to_string(standbys) + " standbys";
  for (int i = 0; i < txns; ++i) {
    // Each txn dirties ~3 pages (row page, undo page, index page).
    sim.Schedule(i * 1000, [&]() { primary.CommitTxn(3, []() {}); });
  }
  sim.Run();
  row.txns = txns;
  row.bytes = net.stats().bytes_sent;
  row.messages = net.stats().messages_sent;
  return row;
}

}  // namespace
}  // namespace aurora

namespace {

void BM_NetworkSend(benchmark::State& state) {
  aurora::sim::Simulator sim;
  aurora::sim::Network net(&sim);
  net.RegisterNode(1, 0);
  net.RegisterNode(2, 1);
  for (auto _ : state) {
    net.Send(1, 2, 256, []() {});
    if (state.iterations() % 1024 == 0) sim.Run();
  }
  sim.Run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSend);

}  // namespace

int main(int argc, char** argv) {
  using aurora::bench::Num;
  using aurora::bench::Table;

  // `--quick` (the CTest smoke run) prints the table and checks the byte
  // ceiling, skipping the BM_NetworkSend microbenchmark.
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  constexpr int kTxns = 500;
  Table table("C8: network bytes per committed transaction "
              "(200B values, ~3 dirtied pages/txn)");
  table.Columns({"system", "txns", "total MB", "KB per txn",
                 "msgs per txn"});
  auto print = [&](const aurora::TrafficRow& r) {
    table.Row({r.name, std::to_string(r.txns),
               Num(r.bytes / 1048576.0, 2),
               Num(r.txns ? r.bytes / 1024.0 / r.txns : 0, 2),
               Num(r.txns ? static_cast<double>(r.messages) / r.txns : 0,
                   1)});
  };
  const aurora::TrafficRow aurora_row = aurora::AuroraTraffic(kTxns);
  print(aurora_row);
  print(aurora::PageShippingTraffic(kTxns, 2));
  print(aurora::PageShippingTraffic(kTxns, 4));
  table.Print();
  std::printf(
      "(Aurora ships ~three small redo records to six segments per txn;\n"
      " the page-shipping primary moves whole 8KB pages per standby, so\n"
      " bytes/txn grows with both page count and replica count — the\n"
      " amplification §2.2 eliminates.)\n");
  // The Aurora row is deterministic (seed 909), so its bytes are a fixed
  // number: each redo record carries only what its one page's replay
  // needs. A change that ships more must say why.
  constexpr uint64_t kMaxAuroraBytes = 2675405;  // 5.23 KB per txn
  if (aurora_row.bytes > kMaxAuroraBytes) {
    std::fprintf(stderr, "C8: Aurora row sent %llu bytes, over the %llu "
                 "ceiling\n",
                 static_cast<unsigned long long>(aurora_row.bytes),
                 static_cast<unsigned long long>(kMaxAuroraBytes));
    return 1;
  }
  if (quick) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
