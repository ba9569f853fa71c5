// replica-read: a closed loop of 32 client sessions over ~20k seeded rows
// with Zipf(0.99) key choice, mostly session Gets plus some Scans and
// ~10% Puts, served by 15 read replicas (the production maximum) whose
// 256-page caches are far smaller than the ~600-leaf working set. The
// read path does the work: session routing and anchors, read routing and
// hedging, storage ReadPage, and replica apply x15. The Put share keeps
// writes beside reads, so a read-path gain that costs replication or
// ingest shows here too.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "perfbench/src/bench.h"
#include "src/common/metrics.h"
#include "src/core/session.h"
#include "src/engine/db_instance.h"
#include "src/replica/read_replica.h"

namespace perfbench {
namespace {

constexpr uint64_t kRows = 20000;
constexpr double kTheta = 0.99;
constexpr size_t kSessions = 32;
constexpr size_t kReplicas = 15;
constexpr size_t kReplicaCachePages = 256;
constexpr double kPutShare = 0.10;
constexpr double kScanShare = 0.05;
constexpr size_t kScanLimit = 16;
constexpr size_t kValueBytes = 256;
constexpr SimDuration kWarmup = 300 * aurora::kMillisecond;
constexpr SimDuration kWindow = 6 * aurora::kSecond;
constexpr SimDuration kDrainTimeout = 15 * aurora::kSecond;
/// A Put that loses a row lock (no-wait locking) is retried this often.
constexpr int kConflictRetries = 8;
/// Seeding: concurrent transactions of kSeedBatch rows each.
constexpr size_t kSeedBatch = 50;
constexpr size_t kSeedInFlight = 16;

struct Workload;

/// One closed-loop session: one operation in flight, so its read-your-
/// writes anchor always names its own last acked Put.
struct SessionLoop {
  Workload* w = nullptr;
  size_t index = 0;
  std::unique_ptr<core::ClientSession> session;
  Rng rng{0};
  uint64_t puts = 0;
  bool busy = false;

  void Next();
  void DoGet(uint64_t row);
  void DoScan(uint64_t row);
  void DoPut(uint64_t row, std::string value, SimTime start, int attempt);
  void Done();
};

struct Workload {
  core::AuroraCluster* cluster = nullptr;
  Spans* spans = nullptr;
  aurora::ZipfianGenerator zipf{kRows, kTheta};
  /// Zipf rank → row, a seeded permutation so hot rows are scattered.
  std::vector<uint64_t> rank_to_row;
  /// Every value any client tried to write to a row, plus the seed value.
  std::vector<std::set<std::string>> allowed;
  /// Last acked Put per row: (commit SCN, value).
  std::map<uint64_t, std::pair<Lsn, std::string>> last_acked;
  /// Rows with a Put whose outcome the client never learned.
  std::set<uint64_t> ambiguous;
  std::vector<std::unique_ptr<SessionLoop>> loops;
  SimTime deadline = 0;
  bool measuring = false;
  size_t busy = 0;

  Samples get_us, put_us, scan_us;
  Samples lag_lsn;
  Tally tally;
  uint64_t conflict_retries = 0;
  uint64_t gets = 0;

  std::string Key(uint64_t row) const { return RowKey("r", row); }
  bool Allowed(uint64_t row, const std::string& value) const {
    return allowed[row].contains(value);
  }
  void SampleLag(size_t cursor) {
    const auto& reps = cluster->replicas();
    if (reps.empty()) return;
    const Lsn writer_vdl = cluster->writer()->vdl();
    const Lsn rep_vdl = reps[cursor % reps.size()]->vdl();
    if (writer_vdl == aurora::kInvalidLsn || rep_vdl == aurora::kInvalidLsn) {
      return;
    }
    lag_lsn.Add(writer_vdl > rep_vdl ? int64_t(writer_vdl - rep_vdl) : 0);
  }
};

void SessionLoop::Next() {
  if (w->cluster->sim().Now() >= w->deadline) return;
  busy = true;
  w->busy++;
  const uint64_t row = w->rank_to_row[w->zipf.Next(rng) % kRows];
  const double pick = rng.NextDouble();
  if (pick < kPutShare) {
    char tag[48];
    std::snprintf(tag, sizeof(tag), "s%zu-%llu", index,
                  static_cast<unsigned long long>(++puts));
    std::string value = RowValue(tag, kValueBytes);
    w->allowed[row].insert(value);
    DoPut(row, std::move(value), w->cluster->sim().Now(), 0);
  } else if (pick < kPutShare + kScanShare) {
    DoScan(row);
  } else {
    DoGet(row);
  }
}

void SessionLoop::Done() {
  busy = false;
  w->busy--;
  // A short think time keeps sessions from running in lockstep.
  w->cluster->sim().Schedule(50 + rng.NextBounded(100), [this] { Next(); });
}

void SessionLoop::DoGet(uint64_t row) {
  const SimTime start = w->cluster->sim().Now();
  Spans::Scope scope(w->spans, "core");
  session->Get(w->Key(row), [this, row, start](aurora::Result<std::string> r) {
    const bool counted = w->measuring;
    if (counted) {
      w->gets++;
      w->SampleLag(w->gets);
      if (r.ok() && w->Allowed(row, *r)) {
        w->get_us.Add(w->cluster->sim().Now() - start);
        w->tally.Ok();
      } else if (r.ok()) {
        w->tally.Fail(FailKind::kWrongAnswer, "Get returned a value never written");
      } else if (r.status().IsNotFound()) {
        // Every row was seeded and none is ever deleted.
        w->tally.Fail(FailKind::kWrongAnswer,
                      "Get of a seeded row: " + r.status().ToString());
      } else {
        w->tally.Fail(ClassifyFailure(r.status()), r.status().ToString());
      }
    }
    Done();
  });
}

void SessionLoop::DoScan(uint64_t row) {
  const SimTime start = w->cluster->sim().Now();
  const uint64_t last = std::min<uint64_t>(row + kScanLimit - 1, kRows - 1);
  Spans::Scope scope(w->spans, "core");
  session->Scan(
      w->Key(row), w->Key(last), kScanLimit,
      [this, row, last, start](
          aurora::Result<std::vector<std::pair<std::string, std::string>>> r) {
        if (w->measuring) {
          bool intact = r.ok() && r->size() == last - row + 1;
          for (size_t i = 0; intact && i < r->size(); ++i) {
            intact = (*r)[i].first == w->Key(row + i) &&
                     w->Allowed(row + i, (*r)[i].second);
          }
          if (intact) {
            w->scan_us.Add(w->cluster->sim().Now() - start);
            w->tally.Ok();
          } else if (r.ok()) {
            w->tally.Fail(FailKind::kWrongAnswer,
                          "Scan missed or altered seeded rows");
          } else {
            w->tally.Fail(ClassifyFailure(r.status()), r.status().ToString());
          }
        }
        Done();
      });
}

void SessionLoop::DoPut(uint64_t row, std::string value, SimTime start,
                        int attempt) {
  Spans::Scope scope(w->spans, "core");
  session->Put(w->Key(row), value, [this, row, value, start,
                                    attempt](Status st) mutable {
    if (st.IsConflict() && attempt < kConflictRetries) {
      // No-wait row locks: a client backs off and retries.
      w->conflict_retries++;
      w->cluster->sim().Schedule(
          500 + rng.NextBounded(1000),
          [this, row, value = std::move(value), start, attempt]() mutable {
            DoPut(row, std::move(value), start, attempt + 1);
          });
      return;
    }
    const SimTime now = w->cluster->sim().Now();
    if (st.ok()) {
      auto& last = w->last_acked[row];
      if (session->anchor() >= last.first) last = {session->anchor(), value};
    } else if (st.IsTimedOut()) {
      w->ambiguous.insert(row);
    }
    if (w->measuring) {
      if (st.ok()) {
        w->put_us.Add(now - start);
        w->tally.Ok();
      } else {
        w->tally.Fail(ClassifyFailure(st), st.ToString());
      }
    }
    Done();
  });
}

bool SeedRows(core::AuroraCluster* cluster, Workload* w) {
  aurora::engine::DbInstance* writer = cluster->writer();
  size_t next_row = 0, in_flight = 0;
  bool failed = false;
  std::function<void()> issue = [&] {
    while (!failed && in_flight < kSeedInFlight && next_row < kRows) {
      const aurora::TxnId txn = writer->Begin();
      const size_t first = next_row;
      next_row = std::min<size_t>(next_row + kSeedBatch, kRows);
      in_flight++;
      auto remaining = std::make_shared<size_t>(next_row - first);
      for (size_t row = first; row < next_row; ++row) {
        const std::string value = *w->allowed[row].begin();
        writer->Put(txn, w->Key(row), value, [&, txn, remaining](Status st) {
          if (!st.ok()) failed = true;
          if (--*remaining > 0) return;
          writer->Commit(txn, [&](Status cst) {
            if (!cst.ok()) failed = true;
            in_flight--;
            issue();
          });
        });
      }
    }
  };
  issue();
  cluster->RunUntil([&] { return failed || (in_flight == 0 && next_row == kRows); },
                    120 * aurora::kSecond);
  return !failed && in_flight == 0;
}

}  // namespace

RepResult RunReplicaRead(const RepContext& ctx) {
  RepResult result;
  Spans spans(ctx.traced);

  const double setup_start = CpuSeconds();
  core::AuroraOptions options;
  options.seed = ctx.seed;
  options.volumes = 1;
  options.num_pgs = 2;
  options.replica.cache_pages = kReplicaCachePages;
  core::AuroraCluster cluster(options);
  Workload w;
  w.cluster = &cluster;
  w.spans = &spans;
  w.allowed.resize(kRows);
  w.rank_to_row.resize(kRows);
  Rng perm(ctx.seed ^ 0x5851f42d4c957f2dULL);
  for (uint64_t i = 0; i < kRows; ++i) {
    w.rank_to_row[i] = i;
    w.allowed[i].insert(RowValue("seed" + std::to_string(i), kValueBytes));
  }
  for (uint64_t i = kRows - 1; i > 0; --i) {
    std::swap(w.rank_to_row[i], w.rank_to_row[perm.NextBounded(i + 1)]);
  }
  bool ok = cluster.StartBlocking().ok() && SeedRows(&cluster, &w);
  for (size_t i = 0; ok && i < kReplicas; ++i) {
    ok = cluster.AddReplica() != nullptr;
  }
  if (!ok) {
    result.notes.push_back("set-up failed");
    result.tally.Fail(FailKind::kOther, "set-up failed");
    return result;
  }
  cluster.RunFor(100 * aurora::kMillisecond);  // replicas prime their VDL

  for (size_t s = 0; s < kSessions; ++s) {
    auto loop = std::make_unique<SessionLoop>();
    core::SessionOptions session_options;
    session_options.replica_offset = s;
    loop->w = &w;
    loop->index = s;
    loop->session = std::make_unique<core::ClientSession>(
        &cluster, static_cast<aurora::AzId>(s % 3), session_options);
    loop->rng = Rng(ctx.seed * 1000003 + s);
    w.loops.push_back(std::move(loop));
  }
  // Warm-up: the same mix, unmeasured, so replica caches hold the hot set.
  w.deadline = cluster.sim().Now() + kWarmup;
  for (auto& loop : w.loops) loop->Next();
  cluster.RunUntil([&] { return w.busy == 0 && cluster.sim().Now() >= w.deadline; },
                   kWarmup + kDrainTimeout);
  result.setup_cpu_s = CpuSeconds() - setup_start;

  if (ctx.traced) {
    aurora::metrics::Registry::Global().Reset();
    aurora::metrics::Registry::SetEnabled(true);
  }
  const Counters base = Snapshot(&cluster);
  uint64_t fallbacks0 = 0, session_gets0 = 0;
  for (auto& loop : w.loops) {
    fallbacks0 += loop->session->stats().writer_fallbacks;
    session_gets0 += loop->session->stats().gets;
  }
  const double measure_start = CpuSeconds();
  const SimTime window_start = cluster.sim().Now();
  w.measuring = true;
  w.deadline = window_start + kWindow;
  for (auto& loop : w.loops) loop->Next();
  PumpFor(&cluster, &spans, kWindow);
  std::vector<RedoStream> streams;
  if (ctx.traced) streams = CaptureStreams(&cluster);
  Pump(&cluster, &spans, [&] { return w.busy == 0; }, kDrainTimeout);
  for (size_t i = 0; i < w.busy; ++i) {
    w.tally.Fail(FailKind::kUnfinished, "outstanding at run end");
  }
  result.measured_cpu_s = CpuSeconds() - measure_start;
  aurora::metrics::Registry::SetEnabled(false);
  const uint64_t puts_acked = w.put_us.size();
  Totals totals;
  totals.Add(&cluster, base);
  totals.commits = puts_acked;
  totals.ops = w.tally.succeeded;
  ReportTotals(totals, ctx.traced, &result);

  result.sim["commit_p50_ms"] = Ms(w.put_us.Quantile(0.50));
  result.sim["commit_p99_ms"] = Ms(w.put_us.Quantile(0.99));
  result.sim["commit_samples"] = static_cast<double>(w.put_us.size());
  result.sim["read_p50_ms"] = Ms(w.get_us.Quantile(0.50));
  result.sim["read_p99_ms"] = Ms(w.get_us.Quantile(0.99));
  result.sim["read_samples"] = static_cast<double>(w.get_us.size());
  result.sim["scan_p50_ms"] = Ms(w.scan_us.Quantile(0.50));
  result.sim["write_capacity_tps"] =
      puts_acked / (static_cast<double>(kWindow) / aurora::kSecond);
  result.sim["conflict_retries"] = static_cast<double>(w.conflict_retries);

  char line[200];
  std::snprintf(line, sizeof(line),
                "mix: %zu gets, %zu scans, %zu puts acked, %llu conflict "
                "retries, %zu rows with an unknown Put outcome",
                w.get_us.size(), w.scan_us.size(), w.put_us.size(),
                static_cast<unsigned long long>(w.conflict_retries),
                w.ambiguous.size());
  result.notes.push_back(line);

  if (ctx.traced) {
    uint64_t fallbacks = 0, session_gets = 0;
    for (auto& loop : w.loops) {
      fallbacks += loop->session->stats().writer_fallbacks;
      session_gets += loop->session->stats().gets;
    }
    const double gets = std::max<double>(1, session_gets - session_gets0);
    result.layer["core.writer_fallback_frac"] = (fallbacks - fallbacks0) / gets;
    result.layer["storage.page_reads_per_read"] =
        totals.counters.replica_storage_reads / gets;
    result.layer["replica.lag_lsn_p99"] =
        static_cast<double>(w.lag_lsn.Quantile(0.99));
    ReplayStorage(streams, &result.layer);
    ReportSpans(spans, &result);
  }

  result.tally.Merge(w.tally);
  // Final state: every row's writer value is its last acked Put (or, for
  // a row with an unknown outcome or never updated, any allowed value).
  std::vector<std::string> keys;
  std::map<std::string, uint64_t> row_of;
  for (uint64_t row = 0; row < kRows; ++row) {
    keys.push_back(w.Key(row));
    row_of[keys.back()] = row;
  }
  CheckWriterState(
      &cluster, 0, keys,
      [&](const std::string& key, const std::string& value) {
        const uint64_t row = row_of.at(key);
        auto it = w.last_acked.find(row);
        if (it == w.last_acked.end() || w.ambiguous.contains(row)) {
          return w.Allowed(row, value);
        }
        return value == it->second.second;
      },
      &result.tally, &result.notes);
  return result;
}

}  // namespace perfbench
