// aurora_perfbench: the repository's end-to-end benchmark.
//
//   aurora_perfbench --workload <oltp-write|fleet-write|replica-read|
//                                failover-repair>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// One run repeats the chosen workload (set-up + measured phase, all on
// the default serial engine and default library options) for about
// `--seconds` of wall time. Sim-clock metrics come from the simulated
// Aurora and must be bit-identical in every repetition of a seed; the
// benchmark flags any that differ. Host-clock metrics are medians over
// the repetitions. With --trace 1 the first repetition runs untraced and
// the rest traced; the run prints the per-layer metrics and the tracing
// overhead instead of the end-to-end ones. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* clock = "";
};

// End-to-end metrics, printed with --trace 0 (BENCHMARK.json end_to_end).
// ops_per_host_s, failed_op_frac and failover_gap_ms are reported too but
// stay out of the JSON: see perfbench/README.md.
constexpr MetricDef kEndToEnd[] = {
    {"commit_p50_ms", "ms", "sim"},
    {"commit_p99_ms", "ms", "sim"},
    {"write_capacity_tps", "txn/s", "sim"},
    {"read_p50_ms", "ms", "sim"},
    {"read_p99_ms", "ms", "sim"},
    {"net_bytes_per_commit", "B", "sim"},
    {"disk_ios_per_commit", "ops", "sim"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
};

// Per-layer metrics, printed with --trace 1 (BENCHMARK.json per_layer).
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.net_messages_per_op", "count"},
    {"sim.net_dropped_frac", "ratio"},
    {"log.records_per_write_request", "count"},
    {"log.hotlog_append_host_ns_per_record", "ns"},
    {"common.crc32c_host_ns_per_kb", "ns"},
    {"storage.append_host_ns_per_record", "ns"},
    {"storage.coalesce_host_ns_per_record", "ns"},
    {"storage.gc_host_us_per_pass", "us"},
    {"storage.scrub_host_ns_per_record", "ns"},
    {"storage.ingest_host_share", "ratio"},
    {"storage.disk_op_ms_p50", "ms"},
    {"storage.disk_op_ms_p99", "ms"},
    {"storage.duplicate_frac", "ratio"},
    {"storage.page_reads_per_read", "count"},
    {"storage.gossip_filled_records", "count"},
    {"engine.host_us_per_call", "us"},
    {"engine.put_ms_p99", "ms"},
    {"engine.write_ack_ms_p50", "ms"},
    {"engine.write_ack_ms_p99", "ms"},
    {"engine.retransmit_frac", "ratio"},
    {"engine.vdl_gap_ms_p99", "ms"},
    {"engine.hedge_rate", "ratio"},
    {"engine.stale_epoch_acks", "count"},
    {"engine.recovery_ms", "ms"},
    {"txn.commit_wait_ms_p50", "ms"},
    {"txn.commit_wait_ms_p99", "ms"},
    {"txn.commit_queue_depth_max", "count"},
    {"replica.cache_hit_rate", "ratio"},
    {"replica.evictions_per_read", "count"},
    {"replica.anchor_wait_frac", "ratio"},
    {"replica.lag_lsn_p99", "count"},
    {"core.session_host_us_per_call", "us"},
    {"core.writer_fallback_frac", "ratio"},
    {"core.repair_mttr_ms_p50", "ms"},
    {"core.suspicions", "count"},
    {"core.probe_timeouts", "count"},
    {"core.repairs_committed", "count"},
    {"core.repairs_reverted", "count"},
    {"quorum.membership_epoch_bumps", "count"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         args->trace >= 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Describes the first difference between two repetitions' deterministic
/// outputs, or returns "" when they are identical.
std::string SimDifference(const RepResult& a, const RepResult& b) {
  if (a.fingerprint != b.fingerprint) return "schedule fingerprint";
  if (a.events != b.events) return "executed events";
  for (const auto& [name, value] : a.sim) {
    auto it = b.sim.find(name);
    if (it == b.sim.end() || it->second != value) return name;
  }
  if (a.sim.size() != b.sim.size()) return "sim metric set";
  if (a.tally.attempted != b.tally.attempted ||
      a.tally.failed != b.tally.failed) {
    return "operation outcomes";
  }
  return "";
}

void PrintJsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  std::printf("%.17g", v);
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: aurora_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  RepResult (*run)(const RepContext&) = nullptr;
  if (args.workload == "oltp-write") run = RunOltpWrite;
  if (args.workload == "fleet-write") run = RunFleetWrite;
  if (args.workload == "replica-read") run = RunReplicaRead;
  if (args.workload == "failover-repair") run = RunFailoverRepair;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;

  // Repeat until the next repetition would overrun --seconds. The first
  // repetition pays the cold costs (page faults, allocator growth): its
  // sim metrics are the run's, and the later ones must match them. Host
  // metrics are medians over the warm repetitions. In a traced run the
  // second repetition is the untraced reference and the rest are traced.
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  std::vector<RepResult> reps;
  size_t traced_reps = 0;
  const size_t min_reps = traced ? 3 : 2;
  while (true) {
    const bool trace_this = traced && reps.size() >= 2;
    reps.push_back(run(RepContext{args.seed, trace_this}));
    if (trace_this) traced_reps++;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    const double per_rep = elapsed / reps.size();
    if (reps.size() >= min_reps && elapsed + per_rep > args.seconds) break;
  }

  const RepResult& ref = reps.front();
  std::string nondeterminism;
  for (size_t i = 1; i < reps.size() && nondeterminism.empty(); ++i) {
    const std::string diff = SimDifference(ref, reps[i]);
    if (!diff.empty()) {
      nondeterminism = diff + " differs between repetition 1 and " +
                       std::to_string(i + 1);
    }
  }

  std::vector<double> setup, ops_rate, traced_rate;
  for (size_t i = 1; i < reps.size(); ++i) {
    setup.push_back(reps[i].setup_cpu_s);
    const double rate =
        reps[i].completed_ops / std::max(1e-9, reps[i].measured_cpu_s);
    (traced && i >= 2 ? traced_rate : ops_rate).push_back(rate);
  }

  std::map<std::string, double> metrics;
  for (const MetricDef& m : kEndToEnd) {
    auto it = ref.sim.find(m.name);
    metrics[m.name] = it == ref.sim.end() ? 0.0 : it->second;
  }
  metrics["ops_per_host_s"] = Median(ops_rate);
  metrics["setup_s"] = Median(setup);
  metrics["peak_rss_mb"] = PeakRssMb();

  std::map<std::string, double> layer;
  if (traced) {
    // Counts repeat exactly; host timings are medians over traced reps.
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> values;
      for (size_t i = 2; i < reps.size(); ++i) {
        auto it = reps[i].layer.find(m.name);
        values.push_back(it == reps[i].layer.end() ? 0.0 : it->second);
      }
      layer[m.name] = Median(values);
    }
    const double untraced = Median(ops_rate);
    layer["trace.overhead_frac"] =
        untraced > 0 ? 1.0 - Median(traced_rate) / untraced : 0.0;
  }

  // -- Human-readable report ---------------------------------------------
  const Tally& tally = ref.tally;
  const uint64_t wrong = tally.failed.count(FailKind::kWrongAnswer)
                             ? tally.failed.at(FailKind::kWrongAnswer)
                             : 0;
  std::printf("workload %s, seed %llu, %zu repetitions (%zu traced)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              traced_reps);
  std::printf("schedule fingerprint %llu, %llu events executed; sim metrics "
              "%s across repetitions\n",
              static_cast<unsigned long long>(ref.fingerprint),
              static_cast<unsigned long long>(ref.events),
              nondeterminism.empty() ? "identical"
                                     : ("DIFFER: " + nondeterminism).c_str());
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("repetition %zu%s: set-up %.4f s CPU, measured %.4f s CPU, "
                "%llu ops, %.1f ops/host-s\n",
                i + 1, traced && i >= 2 ? " (traced)" : i == 0 ? " (cold)" : "",
                reps[i].setup_cpu_s,
                reps[i].measured_cpu_s,
                static_cast<unsigned long long>(reps[i].completed_ops),
                reps[i].completed_ops / std::max(1e-9, reps[i].measured_cpu_s));
  }
  for (const auto& line : ref.notes) std::printf("  %s\n", line.c_str());
  std::printf("operations: %llu attempted, %llu failed (failed_op_frac "
              "%.6f)\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.FailedTotal()),
              tally.attempted ? double(tally.FailedTotal()) / tally.attempted
                              : 0.0);
  for (const auto& [kind, n] : tally.failed) {
    std::printf("  %-12s %llu\n", FailKindName(kind),
                static_cast<unsigned long long>(n));
  }
  for (const auto& [msg, n] : tally.messages) {
    std::printf("    %llu x %s\n", static_cast<unsigned long long>(n),
                msg.c_str());
  }
  for (const auto& [name, value] : ref.sim) {
    std::printf("  sim %-34s %.6f\n", name.c_str(), value);
  }
  if (!traced) {
    for (const MetricDef& m : kEndToEnd) {
      const std::string name = m.name;
      std::printf("metric %-22s %14.6f %-6s [%s]", m.name, metrics[name],
                  m.unit, m.clock);
      // Percentiles come with their sample count; p99 needs at least ten
      // samples beyond it to mean anything.
      for (const char* kind : {"commit", "read"}) {
        if (name.rfind(kind, 0) != 0 || name.find("_p") == std::string::npos) {
          continue;
        }
        auto it = ref.sim.find(std::string(kind) + "_samples");
        const double n = it == ref.sim.end() ? 0.0 : it->second;
        std::printf(" n=%.0f", n);
        if (name.find("_p99_") != std::string::npos &&
            n - std::ceil(0.99 * n) < 10) {
          std::printf(" (fewer than 10 samples beyond p99)");
        }
      }
      std::printf("\n");
    }
    std::printf("metric %-22s %14.6f %-6s [host, not in JSON]\n",
                "ops_per_host_s", metrics["ops_per_host_s"], "ops/s");
    std::printf("metric %-22s %14.6f %-6s [not in JSON]\n", "failed_op_frac",
                tally.attempted ? double(tally.FailedTotal()) / tally.attempted
                                : 0.0,
                "ratio");
    if (ref.sim.count("failover_gap_ms")) {
      std::printf("metric %-22s %14.6f %-6s [sim, not in JSON]\n",
                  "failover_gap_ms", ref.sim.at("failover_gap_ms"), "ms");
    }
  } else {
    for (const MetricDef& m : kPerLayer) {
      std::printf("layer  %-38s %14.6f %s\n", m.name, layer[m.name], m.unit);
    }
  }

  const bool correct = nondeterminism.empty() && wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, tally.attempted)),
              static_cast<unsigned long long>(tally.FailedTotal()));
  bool first = true;
  auto emit = [&](const MetricDef& m, double value) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", m.name);
    PrintJsonNumber(value);
    std::printf(", \"unit\": \"%s\"}", m.unit);
    first = false;
  };
  if (traced) {
    for (const MetricDef& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, metrics[m.name]);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
