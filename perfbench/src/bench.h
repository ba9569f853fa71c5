// Shared pieces of the end-to-end benchmark: raw-sample percentiles,
// failure tallies, host-time spans, the open-loop writer used by the
// write workloads, and the black-box read-back checks.
//
// Two clocks run through every workload. "sim" metrics are simulated
// time and counts of the modelled Aurora; they are deterministic for a
// seed and must repeat bit for bit. "host" metrics are the CPU cost of
// the simulator itself and vary run to run.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/cluster.h"
#include "src/log/record.h"
#include "src/quorum/membership.h"

namespace perfbench {

using aurora::Lsn;
using aurora::Rng;
using aurora::SimDuration;
using aurora::SimTime;
using aurora::Status;
using aurora::VolumeId;
namespace core = aurora::core;

/// Process CPU seconds (user + system). The simulator is single-threaded,
/// so this is the simulator's own cost, immune to time spent descheduled.
double CpuSeconds();
/// Process high-water resident set, in MB.
double PeakRssMb();

/// Raw samples; percentiles are nearest-rank over the sorted values, so
/// no histogram bucketing blurs them.
class Samples {
 public:
  void Add(int64_t v) {
    values_.push_back(v);
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  /// Nearest-rank quantile, q in (0, 1]; 0 for an empty set.
  int64_t Quantile(double q) const;
  /// Number of samples strictly above the q-quantile's rank.
  size_t Beyond(double q) const;
  const std::vector<int64_t>& values() const { return values_; }

 private:
  mutable std::vector<int64_t> values_;
  mutable bool sorted_ = true;
};

/// Why a client operation did not succeed. Every attempted operation
/// either succeeds or lands in exactly one of these.
enum class FailKind {
  kAborted,      ///< Aborted / Conflict after client retries
  kFenced,       ///< the writer was fenced by a newer epoch
  kRefused,      ///< no writer could serve it (down, not open, backpressure)
  kTimedOut,     ///< TimedOut from the session watchdog
  kWrongAnswer,  ///< completed, but the answer is not one the data allows
  kUnfinished,   ///< still outstanding when the run ended
  kOther,
};
const char* FailKindName(FailKind kind);
FailKind ClassifyFailure(const Status& status);

struct Tally {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  std::map<FailKind, uint64_t> failed;
  /// First few failure messages, for the report.
  std::map<std::string, uint64_t> messages;

  void Ok() {
    attempted++;
    succeeded++;
  }
  void Fail(FailKind kind, const std::string& message);
  uint64_t FailedTotal() const;
  void Merge(const Tally& other);
};

/// Self-time spans around calls into a layer, timed from the benchmark's
/// own code with the steady clock. A span nested inside another (a
/// callback that runs synchronously inside the outer call and makes its
/// own timed call) is subtracted from its parent, so each layer gets its
/// self time only. Disabled spans cost one branch.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans* spans, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    const char* layer_;
    std::chrono::steady_clock::time_point start_;
  };

  struct Total {
    uint64_t calls = 0;
    double self_ns = 0;
  };
  const Total& total(const std::string& layer) const;

 private:
  bool enabled_;
  std::vector<double> child_ns_;
  std::map<std::string, Total> totals_;
};

/// Everything one repetition of a workload produces.
struct RepResult {
  /// Deterministic sim-clock metrics. With the fingerprint and the event
  /// count they must be identical across repetitions of one seed.
  std::map<std::string, double> sim;
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  /// Host-clock end-to-end metrics of this repetition.
  double setup_cpu_s = 0;
  double measured_cpu_s = 0;
  uint64_t completed_ops = 0;
  /// Per-layer metrics (traced repetitions only).
  std::map<std::string, double> layer;
  Tally tally;
  /// Human-readable report lines (ladder, fault timeline, defects).
  std::vector<std::string> notes;
};

struct RepContext {
  uint64_t seed = 1;
  bool traced = false;
};

/// Seed of the `cell`-th independent cluster of a repetition.
uint64_t CellSeed(uint64_t seed, size_t cell);

RepResult RunOltpWrite(const RepContext& ctx);
RepResult RunFleetWrite(const RepContext& ctx);
RepResult RunReplicaRead(const RepContext& ctx);
RepResult RunFailoverRepair(const RepContext& ctx);

// -- Shared workload machinery ---------------------------------------------

std::string RowKey(const char* prefix, uint64_t index);
/// Bijective 64-bit scramble used to spread keys over the tree.
uint64_t ScatterIndex(uint64_t index);
/// Deterministic value of `bytes` length tagged with `tag` so that every
/// write of the benchmark is distinguishable.
std::string RowValue(const std::string& tag, size_t bytes);

/// Open-loop autocommit writer against one volume. Request i comes due at
/// a seeded Poisson arrival time; when it is due the generator looks up
/// the volume's current writer and runs Begin/Put/Commit on it. Latency is
/// measured from the due time to the commit ack, so a stall also charges
/// the requests that queue behind it.
class OpenLoopWriter {
 public:
  struct Step {
    SimTime start = 0;
    SimTime end = 0;
    double rate = 0;  ///< requests per simulated second
  };
  struct StepStats {
    Samples latency_us;
    uint64_t issued = 0;
    size_t backlog_mid = 0;
    size_t backlog_end = 0;
  };

  OpenLoopWriter(core::AuroraCluster* cluster, VolumeId volume, uint64_t seed,
                 std::string key_prefix, size_t value_bytes, Spans* spans);

  /// Schedules the arrivals for `steps` (ascending, non-overlapping).
  void Start(std::vector<Step> steps);

  size_t outstanding() const { return outstanding_; }
  const std::vector<StepStats>& step_stats() const { return stats_; }
  const Samples& all_latency_us() const { return all_latency_us_; }
  /// Acked key → acked value (each key is written once).
  const std::map<std::string, std::string>& acked() const { return acked_; }
  const std::vector<SimTime>& ack_times() const { return ack_times_; }
  /// Due time of the last request issued.
  SimTime last_due() const { return last_due_; }
  Tally& tally() { return tally_; }
  /// Put call → callback, and Commit call → callback (sim).
  const Samples& put_latency_us() const { return put_latency_us_; }
  const Samples& commit_wait_us() const { return commit_wait_us_; }
  /// Deepest commit queue seen when a request was issued.
  size_t commit_queue_max() const { return commit_queue_max_; }
  /// Counts every request still outstanding as unfinished.
  void CloseOut();

 private:
  void Arrive(size_t step, uint64_t index, SimTime due);
  void Issue(size_t step, uint64_t index, SimTime due);
  void Failed(const Status& st);

  core::AuroraCluster* cluster_;
  VolumeId volume_;
  Rng rng_;
  uint64_t salt_;
  std::string key_prefix_;
  size_t value_bytes_;
  Spans* spans_;
  std::vector<Step> steps_;
  std::vector<StepStats> stats_;
  Samples all_latency_us_;
  Samples put_latency_us_;
  Samples commit_wait_us_;
  size_t commit_queue_max_ = 0;
  std::map<std::string, std::string> acked_;
  std::vector<SimTime> ack_times_;
  size_t outstanding_ = 0;
  uint64_t next_index_ = 0;
  SimTime last_due_ = 0;
  Tally tally_;
};

/// Reads every key in `keys` from the volume's current writer and asks
/// `valid` whether the value is one the client history allows (for an
/// acked write, the last value acked for the key). Each read is one more
/// operation in `tally`: one that returns NotFound or a disallowed value
/// is a wrong answer, since the client had been told the write was
/// durable; with no open writer the reads are refused. Runs after the
/// measured phase and pumps the event loop until every read completes.
void CheckWriterState(
    core::AuroraCluster* cluster, VolumeId volume,
    const std::vector<std::string>& keys,
    const std::function<bool(const std::string&, const std::string&)>& valid,
    Tally* tally, std::vector<std::string>* notes);

/// Session read-back: once every replica has caught up with the writer's
/// VCL, `sessions` closed-loop ClientSessions Get `count` seeded picks of
/// the acked keys of volume 0 and compare them with the acked values. Latency samples feed read_p50_ms/read_p99_ms on the
/// write workloads.
void SessionReadBack(core::AuroraCluster* cluster,
                     const std::map<std::string, std::string>& acked,
                     uint64_t seed, size_t sessions, size_t count,
                     Samples* latency_us, Tally* tally, Spans* spans);

/// Longest stretch without service: for each instant in `starts`, the
/// time to the first ack at or after it (to `end` if none).
SimDuration LongestGap(const std::vector<SimTime>& ack_times,
                       const std::vector<SimTime>& starts, SimTime end);

/// Cluster-wide counters. Snapshot() reads the cumulative values; the
/// difference of two snapshots is what a measured phase did, so set-up
/// traffic (bootstrap, seeding, warm-up) is not charged to the run, and
/// the differences of several independent clusters add up.
struct Counters {
  double sim_us = 0;
  double events = 0;
  double net_messages = 0;
  double net_bytes = 0;
  double net_dropped = 0;
  double disk_ops = 0;
  double records_received = 0;
  double records_duplicate = 0;
  double records_coalesced = 0;
  double gossip_filled = 0;
  double fanout_records = 0;
  double retransmits = 0;
  double write_requests = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double anchored_gets = 0;
  double anchor_waits = 0;
  double replica_storage_reads = 0;
  double hedged_reads = 0;
  double reads_issued = 0;
  double segment_us = 0;  ///< segments x sim time, for GC pass counts

  Counters& operator+=(const Counters& o);
  Counters operator-(const Counters& o) const;
};
Counters Snapshot(core::AuroraCluster* cluster);

/// What a workload adds up over its clusters before reporting.
struct Totals {
  Counters counters;
  aurora::Histogram disk_latency;  ///< SimDisk::op_latency, whole run
  uint64_t fingerprint = 0;
  uint64_t events = 0;
  uint64_t commits = 0;
  uint64_t ops = 0;

  /// Adds one cluster's measured-phase counters and its fingerprint.
  void Add(core::AuroraCluster* cluster, const Counters& base);
};

/// Sets the shared sim metrics (net_bytes_per_commit, disk_ios_per_commit,
/// fingerprint, events) and, when traced, the shared per-layer metrics.
void ReportTotals(const Totals& totals, bool traced, RepResult* result);

/// The retained redo of one full segment, as ChainAfter returns it.
struct RedoStream {
  aurora::SegmentId segment = aurora::kInvalidSegment;
  VolumeId volume = 0;
  aurora::ProtectionGroupId pg = 0;
  aurora::quorum::PgConfig config;
  aurora::VolumeEpoch epoch = 0;
  std::vector<aurora::log::RedoRecord> records;
};

/// Captures the hot-log tail of one full segment per PG (every volume).
/// GC evicts what is backed up and coalesced, so capture while load runs.
std::vector<RedoStream> CaptureStreams(core::AuroraCluster* cluster);

/// Replays captured streams through SegmentStore::Append, CoalesceStep,
/// Scrub and GarbageCollect, SegmentHotLog::Append and Crc32c on fresh
/// objects, and records host cost per record / pass / KB.
void ReplayStorage(const std::vector<RedoStream>& streams,
                   std::map<std::string, double>* layer);

/// Per-layer host metrics from the spans (event loop per event, engine and
/// session calls), the registry-derived metrics, and the storage ingest
/// share: replay cost times the run's ingest counts over event-loop time.
void ReportSpans(const Spans& spans, RepResult* result);

/// Drives `cluster` until `pred` holds or `timeout` of sim time passes,
/// attributing the event-loop CPU to the "sim" span.
bool Pump(core::AuroraCluster* cluster, Spans* spans,
          const std::function<bool()>& pred, SimDuration timeout);
void PumpFor(core::AuroraCluster* cluster, Spans* spans, SimDuration d);

inline double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

}  // namespace perfbench
