#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/common/metrics.h"
#include "src/core/session.h"
#include "src/engine/db_instance.h"
#include "src/replica/read_replica.h"
#include "src/storage/storage_node.h"

namespace perfbench {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

// -- Samples ---------------------------------------------------------------

int64_t Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0, double(values_.size()))) - 1;
  return values_[index];
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  return values_.size() - static_cast<size_t>(std::max(rank, 1.0));
}

// -- Failure tally ---------------------------------------------------------

const char* FailKindName(FailKind kind) {
  switch (kind) {
    case FailKind::kAborted:
      return "aborted";
    case FailKind::kFenced:
      return "fenced";
    case FailKind::kRefused:
      return "refused";
    case FailKind::kTimedOut:
      return "timed_out";
    case FailKind::kWrongAnswer:
      return "wrong_answer";
    case FailKind::kUnfinished:
      return "unfinished";
    case FailKind::kOther:
      return "other";
  }
  return "other";
}

FailKind ClassifyFailure(const Status& status) {
  using aurora::StatusCode;
  switch (status.code()) {
    case StatusCode::kAborted:
    case StatusCode::kConflict:
      return FailKind::kAborted;
    case StatusCode::kFenced:
    case StatusCode::kStaleEpoch:
      return FailKind::kFenced;
    case StatusCode::kUnavailable:
    case StatusCode::kQuorumUnavailable:
      return FailKind::kRefused;
    case StatusCode::kTimedOut:
      return FailKind::kTimedOut;
    default:
      return FailKind::kOther;
  }
}

void Tally::Fail(FailKind kind, const std::string& message) {
  attempted++;
  failed[kind]++;
  std::string key = std::string(FailKindName(kind)) + ": " + message;
  if (messages.size() < 16 || messages.contains(key)) messages[key]++;
}

uint64_t Tally::FailedTotal() const {
  uint64_t total = 0;
  for (const auto& [kind, n] : failed) total += n;
  return total;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  succeeded += other.succeeded;
  for (const auto& [kind, n] : other.failed) failed[kind] += n;
  for (const auto& [msg, n] : other.messages) {
    if (messages.size() < 16 || messages.contains(msg)) messages[msg] += n;
  }
}

// -- Spans -----------------------------------------------------------------

Spans::Scope::Scope(Spans* spans, const char* layer)
    : spans_(spans != nullptr && spans->enabled_ ? spans : nullptr),
      layer_(layer) {
  if (spans_ == nullptr) return;
  spans_->child_ns_.push_back(0);
  start_ = std::chrono::steady_clock::now();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const double elapsed = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  const double children = spans_->child_ns_.back();
  spans_->child_ns_.pop_back();
  Total& t = spans_->totals_[layer_];
  t.calls++;
  t.self_ns += elapsed - children;
  if (!spans_->child_ns_.empty()) spans_->child_ns_.back() += elapsed;
}

const Spans::Total& Spans::total(const std::string& layer) const {
  static const Total kEmpty;
  auto it = totals_.find(layer);
  return it == totals_.end() ? kEmpty : it->second;
}

// -- Keys and values -------------------------------------------------------

std::string RowKey(const char* prefix, uint64_t index) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%08llu", prefix,
                static_cast<unsigned long long>(index));
  return buf;
}

uint64_t ScatterIndex(uint64_t index) {
  // splitmix64 finaliser: a bijection on 64 bits, so distinct indexes
  // stay distinct keys while consecutive requests land on random leaves.
  uint64_t z = index + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string RowValue(const std::string& tag, size_t bytes) {
  std::string value = tag;
  value.push_back('|');
  while (value.size() < bytes) value.push_back('a' + value.size() % 26);
  return value;
}

// -- Event loop ------------------------------------------------------------

bool Pump(core::AuroraCluster* cluster, Spans* spans,
          const std::function<bool()>& pred, SimDuration timeout) {
  Spans::Scope scope(spans, "sim");
  return cluster->RunUntil(pred, timeout);
}

void PumpFor(core::AuroraCluster* cluster, Spans* spans, SimDuration d) {
  Spans::Scope scope(spans, "sim");
  cluster->RunFor(d);
}

// -- Open-loop writer ------------------------------------------------------

OpenLoopWriter::OpenLoopWriter(core::AuroraCluster* cluster, VolumeId volume,
                               uint64_t seed, std::string key_prefix,
                               size_t value_bytes, Spans* spans)
    : cluster_(cluster),
      volume_(volume),
      rng_(seed),
      salt_(seed * 0x2545f4914f6cdd1dULL),
      key_prefix_(std::move(key_prefix)),
      value_bytes_(value_bytes),
      spans_(spans) {}

void OpenLoopWriter::Start(std::vector<Step> steps) {
  steps_ = std::move(steps);
  stats_.assign(steps_.size(), StepStats{});
  auto& sim = cluster_->sim();
  for (size_t s = 0; s < steps_.size(); ++s) {
    // Backlog probes at the middle and the end of each step tell a queue
    // that is growing from one that is merely deep.
    const Step& step = steps_[s];
    sim.ScheduleAt(step.start + (step.end - step.start) / 2,
                   [this, s] { stats_[s].backlog_mid = outstanding_; });
    sim.ScheduleAt(step.end,
                   [this, s] { stats_[s].backlog_end = outstanding_; });
  }
  if (!steps_.empty()) {
    const SimTime first = steps_[0].start;
    sim.ScheduleAt(first, [this, first] { Arrive(0, next_index_++, first); });
  }
}

void OpenLoopWriter::Arrive(size_t step, uint64_t index, SimTime due) {
  Issue(step, index, due);
  // Poisson arrivals: exponential gaps at the step's rate.
  const double mean_gap_us = 1e6 / steps_[step].rate;
  SimTime next = due + std::max<SimDuration>(
                           1, std::llround(rng_.NextExponential(mean_gap_us)));
  while (next >= steps_[step].end) {
    if (++step >= steps_.size()) return;
    next = std::max(next, steps_[step].start);
  }
  cluster_->sim().ScheduleAt(next, [this, step, next] {
    Arrive(step, next_index_++, next);
  });
}

void OpenLoopWriter::Issue(size_t step, uint64_t index, SimTime due) {
  stats_[step].issued++;
  last_due_ = due;
  aurora::engine::DbInstance* writer = cluster_->writer(volume_);
  if (writer == nullptr || !writer->IsOpen() || writer->IsFenced()) {
    tally_.Fail(FailKind::kRefused, "no open writer");
    return;
  }
  char key_buf[48];
  std::snprintf(key_buf, sizeof(key_buf), "%s%016llx", key_prefix_.c_str(),
                static_cast<unsigned long long>(ScatterIndex(index ^ salt_)));
  std::string key = key_buf;
  std::string value =
      RowValue(key_prefix_ + std::to_string(index), value_bytes_);
  outstanding_++;
  commit_queue_max_ = std::max(commit_queue_max_, writer->CommitQueueDepth());
  aurora::TxnId txn;
  {
    Spans::Scope scope(spans_, "engine");
    txn = writer->Begin();
  }
  const SimTime put_at = cluster_->sim().Now();
  Spans::Scope scope(spans_, "engine");
  // The callback gets its own copies: argument evaluation order is
  // unspecified, so moving `key` into the capture could empty it first.
  writer->Put(txn, key, value, [this, writer, txn, step, due, put_at, key,
                                value](Status st) mutable {
    const SimTime now = cluster_->sim().Now();
    put_latency_us_.Add(now - put_at);
    if (!st.ok()) {
      Failed(st);
      if (writer->IsOpen()) writer->Rollback(txn, [](Status) {});
      return;
    }
    Spans::Scope commit_scope(spans_, "engine");
    writer->Commit(txn, [this, step, due, commit_at = now,
                         key = std::move(key),
                         value = std::move(value)](Status cst) mutable {
      const SimTime done = cluster_->sim().Now();
      commit_wait_us_.Add(done - commit_at);
      if (!cst.ok()) {
        Failed(cst);
        return;
      }
      outstanding_--;
      stats_[step].latency_us.Add(done - due);
      all_latency_us_.Add(done - due);
      ack_times_.push_back(done);
      acked_[std::move(key)] = std::move(value);
      tally_.Ok();
    });
  });
}

void OpenLoopWriter::Failed(const Status& st) {
  outstanding_--;
  tally_.Fail(ClassifyFailure(st), st.ToString());
}

void OpenLoopWriter::CloseOut() {
  for (size_t i = 0; i < outstanding_; ++i) {
    tally_.Fail(FailKind::kUnfinished, "outstanding at run end");
  }
  outstanding_ = 0;
}

// -- Read-back checks ------------------------------------------------------

void CheckWriterState(
    core::AuroraCluster* cluster, VolumeId volume,
    const std::vector<std::string>& keys,
    const std::function<bool(const std::string&, const std::string&)>& valid,
    Tally* tally, std::vector<std::string>* notes) {
  aurora::engine::DbInstance* writer = cluster->writer(volume);
  char line[200];
  if (writer == nullptr || !writer->IsOpen()) {
    for (size_t i = 0; i < keys.size(); ++i) {
      tally->Fail(FailKind::kRefused, "read-back: no open writer");
    }
    std::snprintf(line, sizeof(line),
                  "read-back volume %u: no open writer, %zu keys unverified",
                  static_cast<unsigned>(volume), keys.size());
    notes->push_back(line);
    return;
  }
  // Callbacks hold the state, not this frame: a read that outlives the
  // timeout must not touch a dead stack.
  struct State {
    size_t in_flight = 0;
    uint64_t wrong = 0;
    bool closed = false;
  };
  auto state = std::make_shared<State>();
  // Batches bound the fetch queue on a cold cache.
  constexpr size_t kBatch = 64;
  size_t next = 0;
  while (next < keys.size()) {
    for (size_t i = 0; i < kBatch && next < keys.size(); ++i, ++next) {
      state->in_flight++;
      const std::string& key = keys[next];
      writer->Get(aurora::kInvalidTxn, key,
                  [state, tally, &valid, key](aurora::Result<std::string> r) {
                    if (state->closed) return;
                    state->in_flight--;
                    if (r.ok() && valid(key, *r)) {
                      tally->Ok();
                      return;
                    }
                    if (!r.ok() && !r.status().IsNotFound()) {
                      tally->Fail(ClassifyFailure(r.status()),
                                  "read-back: " + r.status().ToString());
                      return;
                    }
                    state->wrong++;
                    tally->Fail(
                        FailKind::kWrongAnswer,
                        "read-back of an acked or seeded key: " +
                            (r.ok() ? std::string("disallowed value")
                                    : r.status().ToString()));
                  });
    }
    if (!cluster->RunUntil([&] { return state->in_flight == 0; },
                           30 * aurora::kSecond)) {
      break;
    }
  }
  const size_t missing = state->in_flight + (keys.size() - next);
  for (size_t i = 0; i < missing; ++i) {
    tally->Fail(FailKind::kUnfinished, "read-back never completed");
  }
  // Late callbacks (after a timeout) must not count again or call `valid`.
  state->closed = true;
  std::snprintf(line, sizeof(line),
                "read-back volume %u: %zu keys checked at the writer, %llu "
                "wrong or missing",
                static_cast<unsigned>(volume), keys.size(),
                static_cast<unsigned long long>(state->wrong + missing));
  notes->push_back(line);
}

void SessionReadBack(core::AuroraCluster* cluster,
                     const std::map<std::string, std::string>& acked,
                     uint64_t seed, size_t sessions, size_t count,
                     Samples* latency_us, Tally* tally, Spans* spans) {
  if (acked.empty() || count == 0) return;
  // Session reads without an anchor may be served by a replica that has
  // not yet applied the newest commits; that is allowed staleness, not a
  // wrong answer. Reading after every replica has caught up with the
  // writer's VCL (and the writer's VDL with it) makes "returns the acked
  // value" the right check.
  aurora::engine::DbInstance* writer = cluster->writer();
  if (writer != nullptr && writer->IsOpen()) {
    const Lsn target = writer->vcl();
    Pump(cluster, spans,
         [&] {
           if (writer->vdl() < target) return false;
           for (const auto& rep : cluster->replicas()) {
             if (rep->vdl() < target) return false;
           }
           return true;
         },
         5 * aurora::kSecond);
  }
  struct Loop {
    std::unique_ptr<core::ClientSession> session;
    Rng rng{0};
  };
  struct State {
    std::vector<std::pair<std::string, std::string>> keys;
    std::vector<std::unique_ptr<Loop>> loops;
    size_t issued = 0;
    size_t done = 0;
    bool closed = false;
  };
  auto state = std::make_shared<State>();
  state->keys.assign(acked.begin(), acked.end());
  // Closed loop: each session issues its next read when the last returns.
  std::function<void(Loop*)> next;
  next = [cluster, count, latency_us, tally, spans, state, &next](Loop* loop) {
    if (state->closed || state->issued >= count) return;
    state->issued++;
    const auto& kv = state->keys[loop->rng.NextBounded(state->keys.size())];
    const SimTime start = cluster->sim().Now();
    Spans::Scope scope(spans, "core");
    loop->session->Get(kv.first, [cluster, latency_us, tally, state, loop,
                                  expected = kv.second, start,
                                  &next](aurora::Result<std::string> r) {
      if (state->closed) return;
      state->done++;
      if (r.ok() && *r == expected) {
        latency_us->Add(cluster->sim().Now() - start);
        tally->Ok();
      } else if (r.ok() || r.status().IsNotFound()) {
        tally->Fail(FailKind::kWrongAnswer,
                    "session read of acked key returned " +
                        (r.ok() ? std::string("another value")
                                : r.status().ToString()));
      } else {
        tally->Fail(ClassifyFailure(r.status()), r.status().ToString());
      }
      next(loop);
    });
  };
  for (size_t s = 0; s < sessions; ++s) {
    auto loop = std::make_unique<Loop>();
    core::SessionOptions options;
    options.replica_offset = s;
    loop->session = std::make_unique<core::ClientSession>(
        cluster, static_cast<aurora::AzId>(s % 3), options);
    loop->rng = Rng(seed * 7919 + s);
    state->loops.push_back(std::move(loop));
  }
  for (auto& loop : state->loops) next(loop.get());
  Pump(cluster, spans,
       [&] { return state->done >= state->issued && state->issued >= count; },
       120 * aurora::kSecond);
  for (size_t i = state->done; i < state->issued; ++i) {
    tally->Fail(FailKind::kUnfinished, "session read never completed");
  }
  // A read still in flight after the timeout must find its session alive
  // and ignore its answer: the state (which owns the sessions) is closed
  // and parked in a far-future event, released with the simulator.
  state->closed = true;
  if (state->done < state->issued) {
    cluster->sim().Schedule(1000LL * 24 * 3600 * aurora::kSecond,
                            [state] {});
  }
}

SimDuration LongestGap(const std::vector<SimTime>& ack_times,
                       const std::vector<SimTime>& starts, SimTime end) {
  SimDuration longest = 0;
  for (SimTime s : starts) {
    auto it = std::lower_bound(ack_times.begin(), ack_times.end(), s);
    const SimTime first = it == ack_times.end() ? end : *it;
    longest = std::max<SimDuration>(longest, first - s);
  }
  return longest;
}

uint64_t CellSeed(uint64_t seed, size_t cell) {
  return ScatterIndex(seed * 64 + cell);
}

namespace {
constexpr double Counters::*kCounterFields[] = {
    &Counters::sim_us,           &Counters::events,
    &Counters::net_messages,     &Counters::net_bytes,
    &Counters::net_dropped,      &Counters::disk_ops,
    &Counters::records_received, &Counters::records_duplicate,
    &Counters::records_coalesced, &Counters::gossip_filled,
    &Counters::fanout_records,   &Counters::retransmits,
    &Counters::write_requests,   &Counters::cache_hits,
    &Counters::cache_misses,     &Counters::cache_evictions,
    &Counters::anchored_gets,    &Counters::anchor_waits,
    &Counters::replica_storage_reads, &Counters::hedged_reads,
    &Counters::reads_issued,     &Counters::segment_us,
};
}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  for (double Counters::*field : kCounterFields) this->*field += o.*field;
  return *this;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  for (double Counters::*field : kCounterFields) d.*field -= o.*field;
  return d;
}

Counters Snapshot(core::AuroraCluster* cluster) {
  Counters c;
  c.sim_us = static_cast<double>(cluster->sim().Now());
  c.events = static_cast<double>(cluster->sim().ExecutedEvents());
  const auto& net = cluster->network().stats();
  c.net_messages = static_cast<double>(net.messages_sent);
  c.net_bytes = static_cast<double>(net.bytes_sent);
  c.net_dropped = static_cast<double>(net.messages_dropped);
  double segments = 0;
  for (const auto& node : cluster->storage_nodes()) {
    c.disk_ops += node->disk().ops_completed();
    for (const auto& [id, seg] : node->segments()) {
      const auto& st = seg->stats();
      c.records_received += st.records_received;
      c.records_duplicate += st.records_duplicate;
      c.records_coalesced += st.records_coalesced;
      c.gossip_filled += st.records_gossip_filled;
      segments++;
    }
  }
  c.segment_us = segments * c.sim_us;
  for (VolumeId v = 0; v < cluster->VolumeCount(); ++v) {
    aurora::engine::DbInstance* w = cluster->writer(v);
    if (w == nullptr || w->driver() == nullptr) continue;
    const auto& ds = w->driver()->stats();
    c.fanout_records += ds.records_sent;
    c.retransmits += ds.retransmissions;
    c.write_requests += ds.write_requests;
    c.reads_issued += ds.reads_issued;
    c.hedged_reads += w->driver()->router().hedged_reads();
  }
  for (const auto& rep : cluster->replicas()) {
    const auto& cs = rep->cache().stats();
    c.cache_hits += cs.hits;
    c.cache_misses += cs.misses;
    c.cache_evictions += cs.evictions;
    c.anchored_gets += rep->stats().anchored_gets;
    c.anchor_waits += rep->stats().anchor_waits;
    if (rep->driver() != nullptr) {
      c.replica_storage_reads += rep->driver()->stats().reads_issued;
      c.reads_issued += rep->driver()->stats().reads_issued;
      c.hedged_reads += rep->driver()->router().hedged_reads();
    }
  }
  return c;
}

void Totals::Add(core::AuroraCluster* cluster, const Counters& base) {
  counters += Snapshot(cluster) - base;
  for (const auto& node : cluster->storage_nodes()) {
    disk_latency.Merge(node->disk().op_latency());
  }
  fingerprint = fingerprint * 0x100000001b3ULL ^
                cluster->sim().ScheduleFingerprint();
  events += cluster->sim().ExecutedEvents();
}

namespace {
double Ratio(double num, double den) { return den <= 0 ? 0.0 : num / den; }
}  // namespace

void ReportTotals(const Totals& totals, bool traced, RepResult* result) {
  const Counters& c = totals.counters;
  const double commits = std::max<double>(1, totals.commits);
  const double ops = std::max<double>(1, totals.ops);
  result->fingerprint = totals.fingerprint;
  result->events = totals.events;
  result->completed_ops = totals.ops;
  auto& sim = result->sim;
  sim["net_bytes_per_commit"] = c.net_bytes / commits;
  sim["disk_ios_per_commit"] = c.disk_ops / commits;
  sim["measured_events"] = c.events;
  if (!traced) return;

  auto& layer = result->layer;
  layer["sim.events_per_op"] = c.events / ops;
  layer["sim.net_messages_per_op"] = c.net_messages / ops;
  layer["sim.net_dropped_frac"] = Ratio(c.net_dropped, c.net_messages);
  layer["log.records_per_write_request"] =
      Ratio(c.fanout_records, c.write_requests);
  layer["storage.duplicate_frac"] =
      Ratio(c.records_duplicate, c.records_received + c.records_duplicate);
  layer["storage.gossip_filled_records"] = c.gossip_filled;
  layer["storage.disk_op_ms_p50"] = Ms(totals.disk_latency.P50());
  layer["storage.disk_op_ms_p99"] = Ms(totals.disk_latency.P99());
  layer["engine.retransmit_frac"] = Ratio(c.retransmits, c.fanout_records);
  layer["engine.hedge_rate"] = Ratio(c.hedged_reads, c.reads_issued);
  layer["replica.cache_hit_rate"] =
      Ratio(c.cache_hits, c.cache_hits + c.cache_misses);
  layer["replica.evictions_per_read"] =
      Ratio(c.cache_evictions, c.anchored_gets);
  layer["replica.anchor_wait_frac"] = Ratio(c.anchor_waits, c.anchored_gets);
  // Ingest counts of the measured phase, weighted by the replay's costs.
  layer["storage.records_received"] = c.records_received;
  layer["storage.records_coalesced"] = c.records_coalesced;
  layer["storage.gc_passes"] = std::floor(
      c.segment_us /
      static_cast<double>(aurora::storage::StorageNodeOptions{}.gc_interval));
}

namespace {

/// Registry-derived per-layer metrics shared by all workloads.
void CollectRegistryLayer(std::map<std::string, double>* layer) {
  const auto& registry = aurora::metrics::Registry::Global();
  auto pct = [&](const char* name, double q) {
    const aurora::Histogram* h = registry.FindHistogram(name);
    return h == nullptr ? 0.0 : Ms(h->Percentile(q));
  };
  (*layer)["engine.write_ack_ms_p50"] = pct("driver.write_ack_us", 0.50);
  (*layer)["engine.write_ack_ms_p99"] = pct("driver.write_ack_us", 0.99);
  (*layer)["engine.vdl_gap_ms_p99"] = pct("engine.vdl_advance_gap_us", 0.99);
  (*layer)["core.repair_mttr_ms_p50"] = pct("aurora.repair.mttr_us", 0.50);
  // The registry counts acks of retired (fenced) drivers too.
  (*layer)["engine.stale_epoch_acks"] = static_cast<double>(
      registry.CounterValue("driver.stale_epoch_acks"));
  (*layer)["core.suspicions"] =
      static_cast<double>(registry.CounterValue("aurora.health.suspected"));
  (*layer)["core.probe_timeouts"] = static_cast<double>(
      registry.CounterValue("aurora.health.probe_timeouts"));
  (*layer)["core.repairs_committed"] =
      static_cast<double>(registry.CounterValue("aurora.repair.committed"));
  (*layer)["core.repairs_reverted"] =
      static_cast<double>(registry.CounterValue("aurora.repair.reverted"));
}

}  // namespace

void ReportSpans(const Spans& spans, RepResult* result) {
  auto& layer = result->layer;
  auto per_call_us = [&](const char* name) {
    const Spans::Total& t = spans.total(name);
    return Ratio(t.self_ns / 1000.0, static_cast<double>(t.calls));
  };
  const double loop_ns = spans.total("sim").self_ns;
  layer["sim.host_ns_per_event"] =
      Ratio(loop_ns, result->sim["measured_events"]);
  layer["engine.host_us_per_call"] = per_call_us("engine");
  layer["core.session_host_us_per_call"] = per_call_us("core");
  const double ingest_ns =
      layer["storage.append_host_ns_per_record"] *
          layer["storage.records_received"] +
      layer["storage.coalesce_host_ns_per_record"] *
          layer["storage.records_coalesced"] +
      layer["storage.gc_host_us_per_pass"] * 1000.0 *
          layer["storage.gc_passes"];
  layer["storage.ingest_host_share"] = Ratio(ingest_ns, loop_ns);
  CollectRegistryLayer(&layer);
}

}  // namespace perfbench
