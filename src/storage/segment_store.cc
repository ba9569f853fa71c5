#include "src/storage/segment_store.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "src/common/logging.h"
#include "src/common/metrics.h"

namespace aurora::storage {

namespace {
// Fleet-wide storage counters, shared by every segment on every node (the
// registry aggregates; per-segment breakdowns were not worth the name
// cardinality). Resolved once, lazily.
struct StoreMetrics {
  metrics::Counter* gossip_filled;
  metrics::Counter* scrub_corruptions;
  metrics::Counter* stale_epoch_rejections;
  metrics::Counter* records_received;
  metrics::Counter* records_duplicate;
  metrics::Counter* reads_served;
};
StoreMetrics& M() {
  static StoreMetrics m = [] {
    auto& r = metrics::Registry::Global();
    return StoreMetrics{r.GetCounter("storage.gossip_filled_records"),
                        r.GetCounter("storage.scrub_corruptions"),
                        r.GetCounter("storage.stale_epoch_rejections"),
                        r.GetCounter("storage.records_received"),
                        r.GetCounter("storage.records_duplicate"),
                        r.GetCounter("storage.reads_served")};
  }();
  return m;
}
}  // namespace

SegmentStore::SegmentStore(quorum::SegmentInfo info, ProtectionGroupId pg,
                           quorum::PgConfig config, VolumeEpoch volume_epoch,
                           bool hydrated)
    : info_(info),
      pg_(pg),
      config_(std::move(config)),
      volume_epoch_(volume_epoch),
      hydrated_(hydrated) {}

Status SegmentStore::CheckEpochs(const EpochVector& epochs) {
  if (epochs.volume_epoch < volume_epoch_) {
    stats_.stale_epoch_rejections++;
    AURORA_COUNT(M().stale_epoch_rejections, 1);
    return Status::StaleEpoch("stale volume epoch " +
                              std::to_string(epochs.volume_epoch) + " < " +
                              std::to_string(volume_epoch_));
  }
  // Epochs are minted by a single authority and monotone: a newer volume
  // epoch teaches this node it missed the recovery write.
  volume_epoch_ = std::max(volume_epoch_, epochs.volume_epoch);
  if (epochs.membership_epoch < config_.epoch()) {
    stats_.stale_epoch_rejections++;
    AURORA_COUNT(M().stale_epoch_rejections, 1);
    return Status::StaleEpoch("stale membership epoch " +
                              std::to_string(epochs.membership_epoch) +
                              " < " + std::to_string(config_.epoch()));
  }
  return Status::OK();
}

void SegmentStore::IndexRecord(const log::RedoRecord& record) {
  // Commit records carry a status-index page op and materialize like any
  // other change; only control records carry no block payload.
  if (info_.is_full && record.type != log::RecordType::kControl &&
      record.block != kInvalidBlock) {
    pending_redo_[record.block].emplace(record.lsn, record);
  }
}

Status SegmentStore::Append(const std::vector<log::RedoRecord>& records) {
  for (const auto& record : records) {
    if (record.pg != pg_) {
      return Status::InvalidArgument("record addressed to wrong PG");
    }
    if (hot_log_.Contains(record.lsn)) {
      stats_.records_duplicate++;
      AURORA_COUNT(M().records_duplicate, 1);
      continue;
    }
    const size_t before = hot_log_.RecordCount();
    AURORA_RETURN_IF_ERROR(hot_log_.Append(record));
    if (hot_log_.RecordCount() > before) {
      stats_.records_received++;
      AURORA_COUNT(M().records_received, 1);
      IndexRecord(record);
    }
  }
  MaybeFinishHydration();
  return Status::OK();
}

Status SegmentStore::AbsorbGossip(const std::vector<log::RedoRecord>& records) {
  for (const auto& record : records) {
    if (hot_log_.Contains(record.lsn)) continue;
    const size_t before = hot_log_.RecordCount();
    AURORA_RETURN_IF_ERROR(hot_log_.Append(record));
    if (hot_log_.RecordCount() > before) {
      stats_.records_gossip_filled++;
      AURORA_COUNT(M().gossip_filled, 1);
      IndexRecord(record);
    }
  }
  MaybeFinishHydration();
  return Status::OK();
}

size_t SegmentStore::CoalesceStep(size_t max_records) {
  if (!info_.is_full || pgmrpl_ == kInvalidLsn) return 0;
  // Versions above PGMRPL stay pending: a read above the folded page
  // applies them on demand, so only the fold point moves here.
  const Lsn fold_to = std::min(hot_log_.scl(), pgmrpl_);
  size_t applied = 0;
  for (auto block_it = pending_redo_.begin();
       block_it != pending_redo_.end() && applied < max_records;) {
    auto& pending = block_it->second;
    if (pending.begin()->first > fold_to) {
      ++block_it;
      continue;
    }
    auto [page_it, fresh] = pages_.try_emplace(block_it->first);
    Page& page = page_it->second;
    if (fresh) page.id = block_it->first;
    while (!pending.empty() && applied < max_records) {
      const auto& [lsn, record] = *pending.begin();
      if (lsn > fold_to) break;
      if (lsn <= page.page_lsn) {
        // Already reflected in a page absorbed from hydration.
        pending.erase(pending.begin());
        continue;
      }
      if (record.prev_lsn_block != page.page_lsn) {
        // Hole in the block chain below this record (e.g. page state
        // absorbed from hydration is ahead/behind); wait for gossip.
        break;
      }
      const Status st = ApplyRedoPayload(&page, record.payload.view(), lsn);
      if (!st.ok()) {
        AURORA_ERROR << "segment " << info_.id << " coalesce failed: "
                     << st.ToString();
        break;
      }
      pending.erase(pending.begin());
      stats_.records_coalesced++;
      applied++;
    }
    if (page.page_lsn == kInvalidLsn) pages_.erase(page_it);
    if (pending.empty()) {
      block_it = pending_redo_.erase(block_it);
    } else {
      ++block_it;
    }
  }
  return applied;
}

Status SegmentStore::Materialize(BlockId block, Lsn up_to,
                                 Page* page) const {
  if (auto folded = pages_.find(block); folded != pages_.end()) {
    *page = folded->second;
  } else {
    *page = Page{};
    page->id = block;
  }
  auto pending_it = pending_redo_.find(block);
  if (pending_it == pending_redo_.end()) return Status::OK();
  for (auto it = pending_it->second.upper_bound(page->page_lsn);
       it != pending_it->second.end() && it->first <= up_to; ++it) {
    const auto& record = it->second;
    if (record.prev_lsn_block != page->page_lsn) {
      return Status::Unavailable("block chain hole during materialization");
    }
    AURORA_RETURN_IF_ERROR(
        ApplyRedoPayload(page, record.payload.view(), record.lsn));
  }
  return Status::OK();
}

Result<Page> SegmentStore::ReadPage(BlockId block, Lsn read_lsn) {
  if (!info_.is_full) {
    stats_.reads_rejected++;
    return Status::NotSupported("tail segments store redo only");
  }
  if (!hydrated_) {
    stats_.reads_rejected++;
    return Status::Unavailable("segment hydrating");
  }
  // The one refusal rule (§3.4): the block's newest change at or below
  // PGMRPL — folded or still pending — is the oldest version this segment
  // promises. A read below it may need a version the fold has consumed;
  // any read at or above it is answerable, even one below PGMRPL itself
  // (a group-clamped read point can trail a PGMRPL that is another PG's
  // LSN while the block has not changed in between).
  Lsn oldest = FoldedLsn(block);
  if (auto p = pending_redo_.find(block); p != pending_redo_.end()) {
    auto above = p->second.upper_bound(pgmrpl_);
    if (above != p->second.begin()) {
      oldest = std::max(oldest, std::prev(above)->first);
    }
  }
  if (read_lsn < oldest) {
    stats_.reads_rejected++;
    return Status::OutOfRange("read below PGMRPL");
  }
  if (read_lsn > hot_log_.scl()) {
    stats_.reads_rejected++;
    return Status::Unavailable("read above SCL");
  }
  Page page;
  if (Status st = Materialize(block, read_lsn, &page); !st.ok()) {
    stats_.reads_rejected++;
    return st;
  }
  if (page.page_lsn == kInvalidLsn) {
    stats_.reads_rejected++;
    return Status::NotFound("block has no data at or below read point");
  }
  stats_.reads_served++;
  AURORA_COUNT(M().reads_served, 1);
  return page;
}

void SegmentStore::ObservePgmrpl(Lsn pgmrpl) {
  pgmrpl_ = std::max(pgmrpl_, pgmrpl);
}

void SegmentStore::MarkBackedUp(Lsn lsn) {
  backup_lsn_ = std::max(backup_lsn_, lsn);
}

std::vector<log::RedoRecord> SegmentStore::PendingBackup(
    size_t max_records) const {
  // Only chain-complete records are backed up (no holes in the archive).
  std::vector<log::RedoRecord> out;
  for (const auto& record :
       hot_log_.RecordsAbove(backup_lsn_, max_records)) {
    if (record.lsn > hot_log_.scl()) break;
    out.push_back(record);
  }
  return out;
}

size_t SegmentStore::GarbageCollect() {
  // Hot-log eviction: records must be backed up AND (folded, for full
  // segments). The eviction point is a prefix.
  Lsn evict_to = std::min(backup_lsn_, hot_log_.scl());
  if (info_.is_full) {
    for (const auto& [block, pending] : pending_redo_) {
      if (!pending.empty()) {
        evict_to = std::min(evict_to, pending.begin()->first - 1);
      }
    }
  }
  if (evict_to == kInvalidLsn || evict_to <= hot_log_.gc_floor()) return 0;
  const size_t before = hot_log_.RecordCount();
  hot_log_.EvictBelow(evict_to);
  const size_t removed = before - hot_log_.RecordCount();
  stats_.records_gced += removed;
  return removed;
}

size_t SegmentStore::Scrub() {
  size_t corruptions = 0;
  for (Lsn lsn : hot_log_.CorruptRecords()) {
    hot_log_.Remove(lsn);
    // Drop any pending-redo entry built from the corrupt record.
    for (auto& [block, pending] : pending_redo_) pending.erase(lsn);
    corruptions++;
    stats_.scrub_corruptions_found++;
    AURORA_COUNT(M().scrub_corruptions, 1);
    AURORA_WARN << "segment " << info_.id << " scrub dropped corrupt record "
                << lsn;
  }
  return corruptions;
}

Status SegmentStore::UpdateMembership(const MembershipUpdateRequest& request) {
  // Monotone install: configs are minted by the single membership
  // authority with strictly increasing epochs, so any strictly newer
  // config is accepted (this also lets a node that missed an intermediate
  // epoch catch up). A request at or below the stored epoch is stale —
  // "clients with stale membership epochs have their requests rejected
  // and must update membership information" (§4.1).
  if (request.config.epoch() <= config_.epoch()) {
    stats_.stale_epoch_rejections++;
    AURORA_COUNT(M().stale_epoch_rejections, 1);
    return Status::StaleEpoch("membership epoch " +
                              std::to_string(request.config.epoch()) +
                              " <= " + std::to_string(config_.epoch()));
  }
  config_ = request.config;
  volume_epoch_ = std::max(volume_epoch_, request.volume_epoch);
  return Status::OK();
}

Status SegmentStore::UpdateVolumeEpoch(
    const VolumeEpochUpdateRequest& request) {
  if (request.new_epoch <= volume_epoch_) {
    stats_.stale_epoch_rejections++;
    AURORA_COUNT(M().stale_epoch_rejections, 1);
    return Status::StaleEpoch("volume epoch " +
                              std::to_string(request.new_epoch) + " <= " +
                              std::to_string(volume_epoch_));
  }
  volume_epoch_ = request.new_epoch;
  if (request.truncation.has_value()) {
    const auto& range = *request.truncation;
    hot_log_.Truncate(range);
    // Drop pending redo and folded pages inside the annulled range (§2.4:
    // in-flight writes completing during recovery must be ignored; a page
    // built from annulled records is invalid). Folding stops at PGMRPL,
    // which is never above a durable point, so only a page absorbed from
    // a hydration donor can reach into the range.
    for (auto it = pending_redo_.begin(); it != pending_redo_.end();) {
      auto& pending = it->second;
      pending.erase(pending.lower_bound(range.start),
                    pending.upper_bound(range.end));
      it = pending.empty() ? pending_redo_.erase(it) : std::next(it);
    }
    std::erase_if(pages_, [&](const auto& entry) {
      return entry.second.page_lsn >= range.start;
    });
  }
  return Status::OK();
}

void SegmentStore::BeginHydration(Lsn target_scl) {
  hydrated_ = false;
  hydration_target_ = target_scl;
  MaybeFinishHydration();
}

void SegmentStore::MaybeFinishHydration() {
  if (!hydrated_ && hot_log_.scl() >= hydration_target_) {
    hydrated_ = true;
    AURORA_DEBUG << "segment " << info_.id << " hydrated to scl "
                 << hot_log_.scl();
  }
}

Status SegmentStore::AbsorbHydration(const HydrationResponse& response) {
  for (const auto& range : response.truncations) {
    hot_log_.Truncate(range);
  }
  AURORA_RETURN_IF_ERROR(AbsorbGossip(response.records));
  for (const auto& page : response.pages) {
    auto [it, fresh] = pages_.try_emplace(page.id, page);
    if (!fresh && it->second.page_lsn < page.page_lsn) it->second = page;
    // Pending redo at or below the absorbed page is already reflected.
    auto pending_it = pending_redo_.find(page.id);
    if (pending_it != pending_redo_.end()) {
      auto& pending = pending_it->second;
      pending.erase(pending.begin(),
                    pending.upper_bound(it->second.page_lsn));
      if (pending.empty()) pending_redo_.erase(pending_it);
    }
  }
  MaybeFinishHydration();
  return Status::OK();
}

HydrationResponse SegmentStore::BuildHydration(
    const HydrationRequest& request) const {
  HydrationResponse response;
  response.status = Status::OK();
  response.truncations = hot_log_.truncations();
  constexpr size_t kMaxRecords = 4096;
  response.records = hot_log_.RecordsAbove(request.have_scl, kMaxRecords);
  if (request.need_blocks && info_.is_full) {
    // Every block, folded or still only pending, materialized at SCL: the
    // newest version is sufficient for repair. A chain hole stops a block
    // early; gossip fills the rest.
    std::set<BlockId> blocks;
    for (const auto& [block, page] : pages_) blocks.insert(block);
    for (const auto& [block, pending] : pending_redo_) blocks.insert(block);
    for (BlockId block : blocks) {
      Page page;
      (void)Materialize(block, hot_log_.scl(), &page);
      if (page.page_lsn != kInvalidLsn) response.pages.push_back(page);
    }
  }
  return response;
}

void SegmentStore::ResetToArchive(const std::vector<log::RedoRecord>& records,
                                  Lsn restore_point, VolumeEpoch new_epoch) {
  // Truncation history survives the reset: ranges annulled by earlier
  // recoveries/restores may still have records in the archive (they were
  // backed up before being annulled) and must not be resurrected.
  const std::vector<log::TruncationRange> annulled =
      hot_log_.truncations();
  hot_log_ = log::SegmentHotLog();
  for (const auto& range : annulled) hot_log_.Truncate(range);
  pending_redo_.clear();
  pages_.clear();
  pgmrpl_ = kInvalidLsn;
  backup_lsn_ = kInvalidLsn;
  hydrated_ = true;
  hydration_target_ = kInvalidLsn;
  volume_epoch_ = new_epoch;
  for (const auto& record : records) {
    if (record.lsn > restore_point) continue;
    if (record.pg != pg_) continue;
    if (hot_log_.Append(record).ok() &&
        hot_log_.Contains(record.lsn)) {
      IndexRecord(record);
    }
  }
  // Everything the archive held was once backed up by definition.
  backup_lsn_ = hot_log_.scl();
  // Annul the old timeline above the restore point (writes archived after
  // it or still straggling through the network). The range width matches
  // the engine's truncation gap so the post-restore recovery allocates
  // new LSNs just above it.
  hot_log_.Truncate(
      log::TruncationRange{restore_point + 1, restore_point + (1ULL << 30)});
}

bool SegmentStore::CorruptRecordForTest(Lsn lsn) {
  // Payload buffers are shared across the fleet; the hot log does a
  // copy-on-write flip so only this segment's copy goes bad.
  return hot_log_.CorruptPayloadForTest(lsn);
}

Lsn SegmentStore::FoldedLsn(BlockId block) const {
  auto it = pages_.find(block);
  return it == pages_.end() ? kInvalidLsn : it->second.page_lsn;
}

uint64_t SegmentStore::PageBytes() const {
  uint64_t bytes = 0;
  for (const auto& [block, page] : pages_) bytes += page.SizeBytes();
  return bytes;
}

size_t SegmentStore::PendingRedoCount() const {
  size_t n = 0;
  for (const auto& [block, pending] : pending_redo_) n += pending.size();
  return n;
}

}  // namespace aurora::storage
