// oltp-write: an open loop of autocommit 256-byte row inserts climbing a
// ladder of fixed offered rates. One volume of two protection groups (so
// VCL straddles PGs) and one read replica attached to the stream; the
// writer's 8,192-page cache holds the whole tree. The write path does
// nearly all the work: boxcar, driver fan-out and retransmit, network,
// storage ingest, tracker and commit queue. The read path and control
// plane sit idle until the closing session read-back.
//
// fleet-write: the same ladder with 15 read replicas (the production
// maximum) consuming the redo stream, each with a 256-page cache. The
// write path now feeds 15 replica streams (replica apply x15, network
// bytes per commit). The closing session read-back spreads its reads over
// the fleet, so most of them miss a replica cache and read the page from
// storage (read routing, hedging, ReadPage). It starts once every replica
// has caught up, so no read overlaps the ladder's writes.
//
// A repetition runs the ladder on kCells independent clusters (seeds
// derived from --seed) and pools their samples: one cluster's latency
// varies with its seed far more than its sample count suggests.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/common/metrics.h"
#include "src/engine/db_instance.h"

namespace perfbench {
namespace {

constexpr size_t kCells = 5;
/// Offered rates (txn/s, sim). For a 10 ms p99 the knee of the default
/// build lies between 8k and 11k; the top step sits past it.
constexpr double kLadder[] = {2000, 5000, 8000, 11000};
constexpr size_t kNominalStep = 1;  // 5k txn/s
/// Each step is held for one GC cycle (gc_interval is 500 ms) per cell,
/// so the pooled step spans kCells cycles.
constexpr SimDuration kStepHold = 500 * aurora::kMillisecond;
constexpr SimDuration kDrainTimeout = 10 * aurora::kSecond;
constexpr SimDuration kP99LimitUs = 10 * aurora::kMillisecond;
constexpr size_t kValueBytes = 256;
constexpr size_t kReadBackSessions = 4;
constexpr size_t kReadBackReads = 2000;
/// Warm-up load before measuring: grows the tree and the allocator.
constexpr double kWarmupRate = 2000;
constexpr SimDuration kWarmup = 500 * aurora::kMillisecond;
constexpr size_t kSteps = sizeof(kLadder) / sizeof(kLadder[0]);

/// Replica fleet of one workload; a cache of 0 pages keeps the default.
struct Shape {
  size_t replicas = 1;
  size_t replica_cache_pages = 0;
};

struct Pooled {
  Totals totals;
  OpenLoopWriter::StepStats steps[kSteps];
  Samples read_us;
  Samples put_us;
  Samples commit_wait_us;
  size_t commit_queue_max = 0;
  double setup_cpu_s = 0;
  double measured_cpu_s = 0;
};

/// One cluster: set-up, warm-up, the ladder, the session read-back, and
/// the writer read-back check (outside the measured phase).
void RunCell(const Shape& shape, uint64_t seed, bool traced, bool replay,
             Spans* spans, Pooled* pooled, RepResult* result) {
  const double setup_start = CpuSeconds();
  core::AuroraOptions options;
  options.seed = seed;
  options.volumes = 1;
  options.num_pgs = 2;
  options.db.cache_pages = 8192;
  if (shape.replica_cache_pages > 0) {
    options.replica.cache_pages = shape.replica_cache_pages;
  }
  core::AuroraCluster cluster(options);
  bool ok = cluster.StartBlocking().ok();
  for (size_t i = 0; ok && i < shape.replicas; ++i) {
    ok = cluster.AddReplica() != nullptr;
  }
  if (!ok) {
    result->notes.push_back("set-up failed");
    result->tally.Fail(FailKind::kOther, "set-up failed");
    return;
  }
  cluster.RunFor(100 * aurora::kMillisecond);  // replicas prime their VDL
  OpenLoopWriter warmup(&cluster, 0, seed ^ 0xabcdef, "u", kValueBytes,
                        nullptr);
  const SimTime warm_start = cluster.sim().Now() + aurora::kMillisecond;
  warmup.Start({{warm_start, warm_start + kWarmup, kWarmupRate}});
  cluster.RunFor(kWarmup + aurora::kMillisecond);
  cluster.RunUntil([&] { return warmup.outstanding() == 0; }, kDrainTimeout);
  warmup.CloseOut();
  pooled->setup_cpu_s += CpuSeconds() - setup_start;

  aurora::metrics::Registry::SetEnabled(traced);
  const Counters base = Snapshot(&cluster);
  const double measure_start = CpuSeconds();
  OpenLoopWriter writer(&cluster, 0, seed, "w", kValueBytes, spans);
  std::vector<OpenLoopWriter::Step> steps;
  SimTime t = cluster.sim().Now() + aurora::kMillisecond;
  for (double rate : kLadder) {
    steps.push_back({t, t + kStepHold, rate});
    t += kStepHold;
  }
  writer.Start(steps);
  PumpFor(&cluster, spans, t - cluster.sim().Now());
  std::vector<RedoStream> streams;
  if (replay) streams = CaptureStreams(&cluster);
  Pump(&cluster, spans, [&] { return writer.outstanding() == 0; },
       kDrainTimeout);
  writer.CloseOut();
  Tally read_tally;
  SessionReadBack(&cluster, writer.acked(), seed, kReadBackSessions,
                  kReadBackReads, &pooled->read_us, &read_tally, spans);
  pooled->measured_cpu_s += CpuSeconds() - measure_start;
  aurora::metrics::Registry::SetEnabled(false);

  pooled->totals.Add(&cluster, base);
  pooled->totals.commits += writer.tally().succeeded;
  pooled->totals.ops += writer.tally().succeeded + read_tally.succeeded;
  for (size_t s = 0; s < kSteps; ++s) {
    const auto& st = writer.step_stats()[s];
    auto& into = pooled->steps[s];
    for (int64_t v : st.latency_us.values()) into.latency_us.Add(v);
    into.issued += st.issued;
    into.backlog_mid += st.backlog_mid;
    into.backlog_end += st.backlog_end;
  }
  for (int64_t v : writer.put_latency_us().values()) pooled->put_us.Add(v);
  for (int64_t v : writer.commit_wait_us().values()) {
    pooled->commit_wait_us.Add(v);
  }
  pooled->commit_queue_max =
      std::max(pooled->commit_queue_max, writer.commit_queue_max());
  if (replay) ReplayStorage(streams, &result->layer);

  result->tally.Merge(warmup.tally());
  result->tally.Merge(writer.tally());
  result->tally.Merge(read_tally);
  // The check runs after the measured phase: it verifies, it is not load.
  std::map<std::string, std::string> acked = warmup.acked();
  acked.insert(writer.acked().begin(), writer.acked().end());
  std::vector<std::string> keys;
  for (const auto& kv : acked) keys.push_back(kv.first);
  CheckWriterState(
      &cluster, 0, keys,
      [&](const std::string& key, const std::string& value) {
        return acked.at(key) == value;
      },
      &result->tally, &result->notes);
}

RepResult RunLadder(const RepContext& ctx, const Shape& shape) {
  RepResult result;
  Spans spans(ctx.traced);
  auto pooled = std::make_unique<Pooled>();
  if (ctx.traced) aurora::metrics::Registry::Global().Reset();
  for (size_t cell = 0; cell < kCells; ++cell) {
    RunCell(shape, CellSeed(ctx.seed, cell), ctx.traced,
            ctx.traced && cell + 1 == kCells, &spans, pooled.get(), &result);
  }
  result.setup_cpu_s = pooled->setup_cpu_s;
  result.measured_cpu_s = pooled->measured_cpu_s;
  ReportTotals(pooled->totals, ctx.traced, &result);

  // Ladder: a step meets the limit when every request it offered was
  // acked, its p99 is within the limit and its backlog is not growing.
  // Capacity is the rate at which p99 crosses the limit, interpolated
  // between the last step of the passing prefix and the first failing
  // step, so that it moves smoothly instead of jumping a whole step.
  char line[200];
  result.notes.push_back(
      "ladder (pooled over cells): offered_tps | commits | commit_p50_ms | "
      "commit_p99_ms | backlog_mid | backlog_end | meets_limit");
  double capacity = -1;
  for (size_t s = 0; s < kSteps; ++s) {
    const auto& st = pooled->steps[s];
    const double p99 = static_cast<double>(st.latency_us.Quantile(0.99));
    const size_t slack =
        kCells * (static_cast<size_t>(kLadder[s] * 0.01) + 16);
    const bool growing = st.backlog_end > st.backlog_mid + slack;
    const bool all_acked = st.latency_us.size() == st.issued;
    const bool ok = all_acked && !growing &&
                    st.latency_us.Beyond(0.99) >= 10 && p99 <= kP99LimitUs;
    if (!ok && capacity < 0) {
      double frac = 0;
      if (s > 0 && all_acked && !growing) {
        const double prev = static_cast<double>(
            pooled->steps[s - 1].latency_us.Quantile(0.99));
        frac = std::clamp((kP99LimitUs - prev) / std::max(1.0, p99 - prev),
                          0.0, 1.0);
      }
      capacity =
          s == 0 ? 0 : kLadder[s - 1] + frac * (kLadder[s] - kLadder[s - 1]);
    }
    std::snprintf(line, sizeof(line),
                  "ladder: %.0f | %zu | %.3f | %.3f | %zu | %zu | %s",
                  kLadder[s], st.latency_us.size(),
                  Ms(st.latency_us.Quantile(0.50)), Ms(p99), st.backlog_mid,
                  st.backlog_end, ok ? "yes" : "no");
    result.notes.push_back(line);
    const std::string prefix =
        "ladder." + std::to_string(static_cast<int>(kLadder[s]));
    result.sim[prefix + ".commit_p99_ms"] = Ms(p99);
    result.sim[prefix + ".backlog_end"] = static_cast<double>(st.backlog_end);
  }
  if (capacity < 0) capacity = kLadder[kSteps - 1];

  const auto& nominal = pooled->steps[kNominalStep].latency_us;
  result.sim["commit_p50_ms"] = Ms(nominal.Quantile(0.50));
  result.sim["commit_p99_ms"] = Ms(nominal.Quantile(0.99));
  result.sim["commit_samples"] = static_cast<double>(nominal.size());
  result.sim["write_capacity_tps"] = capacity;
  result.sim["read_p50_ms"] = Ms(pooled->read_us.Quantile(0.50));
  result.sim["read_p99_ms"] = Ms(pooled->read_us.Quantile(0.99));
  result.sim["read_samples"] = static_cast<double>(pooled->read_us.size());

  if (ctx.traced) {
    auto& layer = result.layer;
    layer["engine.put_ms_p99"] = Ms(pooled->put_us.Quantile(0.99));
    layer["txn.commit_wait_ms_p50"] = Ms(pooled->commit_wait_us.Quantile(0.50));
    layer["txn.commit_wait_ms_p99"] = Ms(pooled->commit_wait_us.Quantile(0.99));
    layer["txn.commit_queue_depth_max"] =
        static_cast<double>(pooled->commit_queue_max);
    layer["storage.page_reads_per_read"] =
        pooled->totals.counters.replica_storage_reads /
        std::max<double>(1, pooled->read_us.size());
    ReportSpans(spans, &result);
  }
  return result;
}

}  // namespace

RepResult RunOltpWrite(const RepContext& ctx) { return RunLadder(ctx, {}); }

RepResult RunFleetWrite(const RepContext& ctx) {
  return RunLadder(ctx, {15, 256});
}

}  // namespace perfbench
