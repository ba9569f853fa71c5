// Host cost of the storage layer, measured by replaying the run's own
// redo stream through the layer's public functions on fresh objects. The
// simulator interleaves storage work with everything else, so timing it
// in place would need instrumentation inside the library; the replay
// gives per-record costs that, weighted by the run's observed counts,
// estimate the storage share of the event loop.

#include <algorithm>
#include <chrono>
#include <limits>

#include "perfbench/src/bench.h"
#include "src/common/crc32.h"
#include "src/log/hot_log.h"
#include "src/storage/segment_store.h"
#include "src/storage/storage_node.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double NsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

}  // namespace

std::vector<RedoStream> CaptureStreams(core::AuroraCluster* cluster) {
  std::vector<RedoStream> streams;
  cluster->ForEachPgConfig([&](VolumeId, const aurora::quorum::PgConfig& pg) {
    for (const auto& member : pg.AllMembers()) {
      if (!member.is_full) continue;
      aurora::storage::StorageNode* node = cluster->NodeForSegment(member.id);
      const aurora::storage::SegmentStore* store =
          node == nullptr ? nullptr : node->FindSegment(member.id);
      if (store == nullptr || !node->IsUp() || !store->hydrated()) continue;
      const auto& hot_log = store->hot_log();
      const auto first = hot_log.RecordsAbove(hot_log.gc_floor(), 1);
      if (first.empty()) continue;
      RedoStream stream{store->id(), store->volume(), store->pg(),
                        store->config(), store->volume_epoch(),
                        store->ChainAfter(first.front().prev_lsn_segment,
                                          std::numeric_limits<size_t>::max())};
      // Re-link the window so it is a complete chain on an empty segment:
      // its first record, and the first record of each block in it, point
      // at kInvalidLsn.
      stream.records.front().prev_lsn_segment = aurora::kInvalidLsn;
      std::set<aurora::BlockId> seen;
      for (auto& r : stream.records) {
        if (seen.insert(r.block).second) {
          r.prev_lsn_block = aurora::kInvalidLsn;
        }
      }
      streams.push_back(std::move(stream));
      return;
    }
  });
  return streams;
}

void ReplayStorage(const std::vector<RedoStream>& streams,
                   std::map<std::string, double>* layer) {
  // Append arrives in boxcar-sized batches; coalescing and GC follow in
  // the same cadence as the storage node's background ticks, one GC pass
  // per chunk of the stream.
  constexpr size_t kBatch = 16;
  constexpr size_t kChunks = 8;
  double append_ns = 0, coalesce_ns = 0, gc_ns = 0, scrub_ns = 0;
  double hotlog_ns = 0, crc_ns = 0;
  uint64_t records = 0, coalesced = 0, gc_passes = 0, crc_bytes = 0;
  uint32_t crc_sink = 0;
  for (const RedoStream& redo : streams) {
    const auto& stream = redo.records;
    aurora::quorum::SegmentInfo info;
    info.id = redo.segment;
    info.is_full = true;
    info.volume = redo.volume;
    aurora::storage::SegmentStore store(info, redo.pg, redo.config,
                                        redo.epoch);
    const size_t chunk = std::max<size_t>(1, stream.size() / kChunks);
    for (size_t begin = 0; begin < stream.size(); begin += chunk) {
      const size_t end = std::min(stream.size(), begin + chunk);
      for (size_t b = begin; b < end; b += kBatch) {
        std::vector<aurora::log::RedoRecord> batch(
            stream.begin() + b, stream.begin() + std::min(end, b + kBatch));
        const auto t = Clock::now();
        (void)store.Append(batch);
        append_ns += NsSince(t);
      }
      auto t = Clock::now();
      while (store.CoalesceStep(1024) > 0) {
      }
      coalesce_ns += NsSince(t);
      t = Clock::now();
      store.Scrub();
      scrub_ns += NsSince(t);
      store.MarkBackedUp(store.scl());
      store.ObservePgmrpl(store.scl());
      t = Clock::now();
      store.GarbageCollect();
      gc_ns += NsSince(t);
      gc_passes++;
    }
    records += store.stats().records_received;
    coalesced += store.stats().records_coalesced;

    aurora::log::SegmentHotLog hot_log;
    auto t = Clock::now();
    for (const auto& r : stream) (void)hot_log.Append(r);
    hotlog_ns += NsSince(t);

    t = Clock::now();
    for (const auto& r : stream) {
      crc_sink ^= aurora::Crc32c(r.payload.data(), r.payload.size());
      crc_bytes += r.payload.size();
    }
    crc_ns += NsSince(t);
  }

  auto per = [](double ns, double n) { return n <= 0 ? 0.0 : ns / n; };
  const double stream_records = static_cast<double>(records);
  (*layer)["storage.replay_records"] = stream_records;
  (*layer)["storage.append_host_ns_per_record"] = per(append_ns, records);
  (*layer)["storage.coalesce_host_ns_per_record"] =
      per(coalesce_ns, coalesced);
  (*layer)["storage.gc_host_us_per_pass"] = per(gc_ns, gc_passes) / 1000.0;
  (*layer)["storage.scrub_host_ns_per_record"] =
      per(scrub_ns, records);
  (*layer)["log.hotlog_append_host_ns_per_record"] =
      per(hotlog_ns, stream_records);
  // The checksum is kept live so the loop is not optimised away.
  (*layer)["common.crc32c_host_ns_per_kb"] =
      per(crc_ns, crc_bytes / 1024.0) + (crc_sink == 0xffffffffu ? 1e-9 : 0);

}

}  // namespace perfbench
