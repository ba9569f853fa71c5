// failover-repair: open-loop autocommit writes at one fixed rate per
// volume on four volumes x two PGs sharing nine storage nodes (three per
// AZ), with the health monitor and repair planner running, under a
// scripted fault schedule at fixed sim times:
//   * the storage nodes of one AZ go dark for a short outage, and during
//     it one more storage node crashes for good (the paper's AZ+1 case);
//   * the crashed node is never restarted, so the planner must repair its
//     segments through two-step membership changes;
//   * volume 0's writer crashes and is replaced with FailoverBlocking.
// The generator looks up the current writer for every request; requests
// that come due while no writer can serve them fail. Quorum and
// membership, recovery and epochs, gossip and hydration, and the control
// plane do the work; the steady write path does little.

#include <algorithm>
#include <cstdio>

#include "perfbench/src/bench.h"
#include "src/common/metrics.h"
#include "src/core/health_monitor.h"
#include "src/core/repair_planner.h"
#include "src/engine/db_instance.h"

namespace perfbench {
namespace {

constexpr size_t kVolumes = 4;
constexpr double kRatePerVolume = 1000;  // txn/s, sim
constexpr size_t kValueBytes = 256;
/// Fault schedule, as offsets from the start of the measured phase.
constexpr SimDuration kAzOutageAt = 1000 * aurora::kMillisecond;
constexpr SimDuration kAzOutage = 500 * aurora::kMillisecond;
constexpr aurora::AzId kOutageAz = 2;
constexpr SimDuration kNodeCrashAt = 1200 * aurora::kMillisecond;
/// Index into the storage fleet of the node that crashes for good (AZ 1).
constexpr size_t kCrashedNode = 4;
constexpr SimDuration kWriterCrashAt = 4000 * aurora::kMillisecond;
constexpr SimDuration kFailoverDelay = 100 * aurora::kMillisecond;
constexpr SimDuration kRunLength = 6000 * aurora::kMillisecond;
constexpr SimDuration kDrainTimeout = 2 * aurora::kSecond;
constexpr size_t kReadBackSessions = 4;
constexpr size_t kReadBackReads = 1000;

}  // namespace

RepResult RunFailoverRepair(const RepContext& ctx) {
  RepResult result;
  Spans spans(ctx.traced);

  const double setup_start = CpuSeconds();
  core::AuroraOptions options;
  options.seed = ctx.seed;
  options.volumes = kVolumes;
  options.num_pgs = 2;
  options.storage_nodes_per_az = 3;
  core::AuroraCluster cluster(options);
  if (!cluster.StartBlocking().ok()) {
    result.notes.push_back("set-up failed");
    result.tally.Fail(FailKind::kOther, "set-up failed");
    return result;
  }
  core::HealthMonitor monitor(&cluster);
  core::RepairPlanner planner(&cluster, &monitor);
  monitor.Start();
  planner.Start();
  cluster.RunFor(200 * aurora::kMillisecond);  // monitor learns the RTTs
  result.setup_cpu_s = CpuSeconds() - setup_start;

  if (ctx.traced) {
    aurora::metrics::Registry::Global().Reset();
    aurora::metrics::Registry::SetEnabled(true);
  }
  std::map<std::pair<VolumeId, aurora::ProtectionGroupId>,
           aurora::MembershipEpoch>
      epochs_before;
  cluster.ForEachPgConfig([&](VolumeId v, const aurora::quorum::PgConfig& c) {
    epochs_before[{v, c.pg()}] = c.epoch();
  });
  const Counters base = Snapshot(&cluster);
  const double measure_start = CpuSeconds();
  const SimTime t0 = cluster.sim().Now() + aurora::kMillisecond;

  std::vector<std::unique_ptr<OpenLoopWriter>> writers;
  for (VolumeId v = 0; v < kVolumes; ++v) {
    writers.push_back(std::make_unique<OpenLoopWriter>(
        &cluster, v, ctx.seed * 31 + v, "v" + std::to_string(v) + "-",
        kValueBytes, &spans));
    writers.back()->Start({{t0, t0 + kRunLength, kRatePerVolume}});
  }

  // The AZ's storage nodes go dark; writer instances stay up (their own
  // crash is the third fault).
  std::vector<aurora::NodeId> az_nodes;
  for (const auto& node : cluster.storage_nodes()) {
    if (node->az() == kOutageAz) az_nodes.push_back(node->id());
  }
  aurora::sim::Network* net = &cluster.network();
  cluster.sim().ScheduleAt(t0 + kAzOutageAt, [net, az_nodes] {
    for (aurora::NodeId id : az_nodes) net->Crash(id);
  });
  cluster.sim().ScheduleAt(t0 + kAzOutageAt + kAzOutage, [net, az_nodes] {
    for (aurora::NodeId id : az_nodes) net->Restart(id);
  });
  const aurora::NodeId crashed = cluster.storage_nodes()[kCrashedNode]->id();
  cluster.sim().ScheduleAt(t0 + kNodeCrashAt,
                           [net, crashed] { net->Crash(crashed); });

  PumpFor(&cluster, &spans, t0 + kWriterCrashAt - cluster.sim().Now());
  std::vector<RedoStream> streams;
  if (ctx.traced) streams = CaptureStreams(&cluster);
  cluster.CrashWriter();
  PumpFor(&cluster, &spans, kFailoverDelay);
  const SimTime failover_start = cluster.sim().Now();
  Status failover;
  {
    Spans::Scope scope(&spans, "sim");
    failover = cluster.FailoverBlocking().status();
  }
  const SimDuration recovery_us = cluster.sim().Now() - failover_start;
  PumpFor(&cluster, &spans, t0 + kRunLength - cluster.sim().Now());
  Pump(&cluster, &spans,
       [&] {
         for (const auto& w : writers) {
           if (w->outstanding() != 0) return false;
         }
         return true;
       },
       kDrainTimeout);
  // The offered load ends with the last request that came due; a volume
  // that never acks again is out of service up to there.
  SimTime run_end = t0;
  for (auto& w : writers) {
    run_end = std::max(run_end, w->last_due());
    w->CloseOut();
  }

  // Client reads of volume 0 after the faults, through sessions (no
  // replicas here, so they are served by the promoted writer).
  Samples read_us;
  Tally read_tally;
  SessionReadBack(&cluster, writers[0]->acked(), ctx.seed, kReadBackSessions,
                  kReadBackReads, &read_us, &read_tally, &spans);
  result.measured_cpu_s = CpuSeconds() - measure_start;
  aurora::metrics::Registry::SetEnabled(false);

  Samples commit_us;
  uint64_t commits = 0;
  for (auto& w : writers) {
    for (int64_t v : w->all_latency_us().values()) commit_us.Add(v);
    commits += w->tally().succeeded;
  }
  Totals totals;
  totals.Add(&cluster, base);
  totals.commits = commits;
  totals.ops = commits + read_tally.succeeded;
  ReportTotals(totals, ctx.traced, &result);

  // Longest stretch without service, per volume: from each fault to that
  // volume's first commit acked afterwards (to the run's end if none).
  const std::vector<SimTime> faults = {t0 + kAzOutageAt, t0 + kNodeCrashAt,
                                       t0 + kWriterCrashAt};
  SimDuration gap = 0;
  char line[200];
  for (VolumeId v = 0; v < kVolumes; ++v) {
    const auto& acks = writers[v]->ack_times();
    const SimDuration g = LongestGap(acks, faults, run_end);
    gap = std::max(gap, g);
    const Tally& t = writers[v]->tally();
    std::snprintf(line, sizeof(line),
                  "volume %u: %llu attempted, %llu acked, commit p50 %.3f ms "
                  "p99 %.3f ms, longest gap after a fault %.3f ms",
                  static_cast<unsigned>(v),
                  static_cast<unsigned long long>(t.attempted),
                  static_cast<unsigned long long>(t.succeeded),
                  Ms(writers[v]->all_latency_us().Quantile(0.5)),
                  Ms(writers[v]->all_latency_us().Quantile(0.99)), Ms(g));
    result.notes.push_back(line);
    result.sim["volume" + std::to_string(v) + ".acked"] =
        static_cast<double>(t.succeeded);
  }
  std::snprintf(line, sizeof(line),
                "faults: AZ %u storage dark at +%lld ms for %lld ms; node %u "
                "crashed at +%lld ms; writer 0 crashed at +%lld ms; "
                "FailoverBlocking %s after %.3f ms",
                static_cast<unsigned>(kOutageAz),
                static_cast<long long>(kAzOutageAt / 1000),
                static_cast<long long>(kAzOutage / 1000),
                static_cast<unsigned>(crashed),
                static_cast<long long>(kNodeCrashAt / 1000),
                static_cast<long long>(kWriterCrashAt / 1000),
                failover.ok() ? "ok" : failover.ToString().c_str(),
                Ms(recovery_us));
  result.notes.push_back(line);

  uint64_t epoch_bumps = 0;
  cluster.ForEachPgConfig([&](VolumeId v, const aurora::quorum::PgConfig& c) {
    auto it = epochs_before.find({v, c.pg()});
    if (it != epochs_before.end()) epoch_bumps += c.epoch() - it->second;
  });
  const auto& ps = planner.stats();
  std::snprintf(line, sizeof(line),
                "repair planner: %llu begun, %llu committed, %llu reverted, "
                "%llu failed; %llu membership epoch bumps",
                static_cast<unsigned long long>(ps.begun),
                static_cast<unsigned long long>(ps.committed),
                static_cast<unsigned long long>(ps.reverted),
                static_cast<unsigned long long>(ps.failed),
                static_cast<unsigned long long>(epoch_bumps));
  result.notes.push_back(line);

  result.sim["commit_p50_ms"] = Ms(commit_us.Quantile(0.50));
  result.sim["commit_p99_ms"] = Ms(commit_us.Quantile(0.99));
  result.sim["commit_samples"] = static_cast<double>(commit_us.size());
  result.sim["write_capacity_tps"] =
      commits / (static_cast<double>(kRunLength) / aurora::kSecond);
  result.sim["read_p50_ms"] = Ms(read_us.Quantile(0.50));
  result.sim["read_p99_ms"] = Ms(read_us.Quantile(0.99));
  result.sim["read_samples"] = static_cast<double>(read_us.size());
  result.sim["failover_gap_ms"] = Ms(gap);
  result.sim["recovery_ms"] = Ms(recovery_us);
  result.sim["membership_epoch_bumps"] = static_cast<double>(epoch_bumps);
  result.sim["repairs_committed"] = static_cast<double>(ps.committed);

  if (ctx.traced) {
    Samples put_us, commit_wait_us;
    size_t queue_max = 0;
    for (auto& w : writers) {
      for (int64_t v : w->put_latency_us().values()) put_us.Add(v);
      for (int64_t v : w->commit_wait_us().values()) commit_wait_us.Add(v);
      queue_max = std::max(queue_max, w->commit_queue_max());
    }
    result.layer["engine.put_ms_p99"] = Ms(put_us.Quantile(0.99));
    result.layer["txn.commit_wait_ms_p50"] = Ms(commit_wait_us.Quantile(0.50));
    result.layer["txn.commit_wait_ms_p99"] = Ms(commit_wait_us.Quantile(0.99));
    result.layer["txn.commit_queue_depth_max"] = static_cast<double>(queue_max);
    result.layer["engine.recovery_ms"] = Ms(recovery_us);
    result.layer["quorum.membership_epoch_bumps"] =
        static_cast<double>(epoch_bumps);
    ReplayStorage(streams, &result.layer);
    ReportSpans(spans, &result);
  }

  for (auto& w : writers) result.tally.Merge(w->tally());
  result.tally.Merge(read_tally);
  for (VolumeId v = 0; v < kVolumes; ++v) {
    std::vector<std::string> keys;
    for (const auto& kv : writers[v]->acked()) keys.push_back(kv.first);
    const auto& acked = writers[v]->acked();
    CheckWriterState(
        &cluster, v, keys,
        [&](const std::string& key, const std::string& value) {
          return acked.at(key) == value;
        },
        &result.tally, &result.notes);
  }
  planner.Stop();
  monitor.Stop();
  return result;
}

}  // namespace perfbench
