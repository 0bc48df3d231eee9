#include "serve/correlation_index.h"

#include <algorithm>
#include <bit>
#include <string>
#include <string_view>

#include "core/check.h"
#include "storage/serialize.h"
#include "telemetry/clock.h"

namespace corrtrack::serve {

namespace {

/// Within-tag posting order: strongest correlation first, fresher values
/// before staler on ties, canonical tagset order as the final tie-break so
/// snapshots are deterministic functions of the builder state.
bool PostingLess(const ShardSnapshot::Entry& a, const ShardSnapshot::Entry& b) {
  if (a.coefficient != b.coefficient) return a.coefficient > b.coefficient;
  if (a.period_end != b.period_end) return a.period_end > b.period_end;
  return a.tags < b.tags;
}

}  // namespace

CorrelationIndex::CorrelationIndex(const ServeConfig& config)
    : config_(config) {
  CORRTRACK_CHECK_GT(config.num_shards, 0);
  num_shards_ = std::bit_ceil(static_cast<size_t>(config.num_shards));
  shard_mask_ = num_shards_ - 1;
  shards_ = std::make_unique<Shard[]>(num_shards_);
  // Publish an empty snapshot everywhere so readers never see null.
  for (size_t s = 0; s < num_shards_; ++s) {
    Publish(shards_[s], std::make_shared<const ShardSnapshot>());
  }
}

void CorrelationIndex::Publish(Shard& shard,
                               std::shared_ptr<const ShardSnapshot> snapshot) {
  {
    std::lock_guard<std::mutex> lock(shard.slot_mutex);
    shard.slot = std::move(snapshot);
  }
  // The version bump is what readers poll; bumped after the swap so a
  // reader seeing the new version finds (at least) that snapshot behind
  // the mutex.
  shard.version.fetch_add(1, std::memory_order_release);
}

void CorrelationIndex::AttachTelemetry(telemetry::MetricRegistry* registry) {
  if (registry == nullptr) {
    query_top_hist_ = nullptr;
    query_lookup_hist_ = nullptr;
    query_scan_hist_ = nullptr;
    apply_hist_ = nullptr;
    epoch_gauge_ = nullptr;
    latest_period_gauge_ = nullptr;
    return;
  }
  // Queries are sub-microsecond on the cached-snapshot fast path, so their
  // histograms record nanoseconds; the writer-side apply is µs-scale.
  query_top_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"top\"}");
  query_lookup_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"lookup\"}");
  query_scan_hist_ =
      registry->GetHistogram("corrtrack_serve_query_ns{op=\"scan\"}");
  apply_hist_ = registry->GetHistogram("corrtrack_serve_apply_us");
  epoch_gauge_ = registry->GetGauge("corrtrack_serve_epoch");
  latest_period_gauge_ = registry->GetGauge("corrtrack_serve_latest_period");
}

void CorrelationIndex::ApplyPeriod(
    Timestamp period_end, const std::vector<JaccardEstimate>& estimates) {
  const int64_t apply_t0 =
      apply_hist_ != nullptr ? telemetry::MonotonicNanos() : 0;
  for (const JaccardEstimate& estimate : estimates) {
    if (estimate.tags.size() < 2) continue;
    // System-wide invariant (and the bound on owners[] below): nothing
    // upstream reports sets beyond the subset-enumeration limit.
    CORRTRACK_CHECK_LE(estimate.tags.size(),
                       static_cast<size_t>(kMaxTagsPerDocument));
    if (estimate.coefficient < config_.min_coefficient) continue;
    // Every shard owning one of the set's tags gets the entry (deduped:
    // several tags may hash to the same shard).
    size_t owners[PackedTagKey::kCapacity];
    size_t num_owners = 0;
    for (const TagId tag : estimate.tags) {
      const size_t s = ShardOf(tag);
      bool seen = false;
      for (size_t i = 0; i < num_owners; ++i) {
        if (owners[i] == s) {
          seen = true;
          break;
        }
      }
      if (!seen) owners[num_owners++] = s;
    }
    for (size_t i = 0; i < num_owners; ++i) {
      Shard& shard = shards_[owners[i]];
      BuilderEntry& entry = shard.builder[estimate.tags];
      // union_count == 0 marks a freshly defaulted entry (a real estimate
      // always has union_count >= intersection_count >= 1). Newer periods
      // win outright; within a period the configured merge rule applies —
      // the Tracker's max-CN, or the additive sum that mirrors an
      // additive Tracker's period map (see ServeConfig::merge). Reports
      // for periods older than the entry's are ignored either way.
      const bool fresh = entry.union_count == 0;
      if (fresh || period_end > entry.period_end) {
        entry.coefficient = estimate.coefficient;
        entry.intersection_count = estimate.intersection_count;
        entry.union_count = estimate.union_count;
        entry.period_end = period_end;
        shard.dirty = true;
      } else if (period_end == entry.period_end) {
        if (config_.merge == EstimateMerge::kAdditive) {
          entry.intersection_count += estimate.intersection_count;
          entry.union_count += estimate.union_count;
          // Same expression as SubsetCounterTable::Compute — the summed
          // partials reproduce the oracle coefficient bit for bit.
          entry.coefficient =
              static_cast<double>(entry.intersection_count) /
              static_cast<double>(entry.union_count);
          shard.dirty = true;
        } else if (estimate.intersection_count > entry.intersection_count) {
          entry.coefficient = estimate.coefficient;
          entry.intersection_count = estimate.intersection_count;
          entry.union_count = estimate.union_count;
          shard.dirty = true;
        }
      }
    }
  }

  EvictExpired(period_end);

  bool published = false;
  const uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    if (!shard.dirty) continue;
    Publish(shard, BuildSnapshot(s, next_epoch));
    shard.dirty = false;
    published = true;
  }
  if (published) {
    epoch_.store(next_epoch, std::memory_order_release);
    last_publish_wall_ns_.store(telemetry::MonotonicNanos(),
                                std::memory_order_relaxed);
  }
  Timestamp latest = latest_period_.load(std::memory_order_relaxed);
  if (period_end > latest) {
    latest_period_.store(period_end, std::memory_order_release);
  }
  if (apply_hist_ != nullptr) {
    apply_hist_->Record(
        telemetry::SpanMicros(apply_t0, telemetry::MonotonicNanos()));
    epoch_gauge_->Set(
        static_cast<double>(epoch_.load(std::memory_order_relaxed)));
    latest_period_gauge_->Set(static_cast<double>(
        latest_period_.load(std::memory_order_relaxed)));
  }
}

void CorrelationIndex::EvictExpired(Timestamp period_end) {
  if (config_.retention_periods <= 0) return;
  const auto it = std::lower_bound(recent_periods_.begin(),
                                   recent_periods_.end(), period_end);
  if (it == recent_periods_.end() || *it != period_end) {
    recent_periods_.insert(it, period_end);
  }
  const size_t keep = static_cast<size_t>(config_.retention_periods);
  if (recent_periods_.size() <= keep) return;
  recent_periods_.erase(recent_periods_.begin(),
                        recent_periods_.end() - static_cast<ptrdiff_t>(keep));
  const Timestamp cutoff = recent_periods_.front();
  std::vector<TagSet> expired;
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    expired.clear();
    for (const auto& [tags, entry] : shard.builder) {
      if (entry.period_end < cutoff) expired.push_back(tags);
    }
    if (expired.empty()) continue;
    for (const TagSet& tags : expired) shard.builder.erase(tags);
    shard.dirty = true;
  }
}

std::shared_ptr<const ShardSnapshot> CorrelationIndex::BuildSnapshot(
    size_t s, uint64_t epoch) const {
  const Shard& shard = shards_[s];
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->epoch_ = epoch;

  snapshot->entries_.reserve(shard.builder.size());
  for (const auto& [tags, entry] : shard.builder) {
    ShardSnapshot::Entry e;
    e.tags = tags;
    e.coefficient = entry.coefficient;
    e.intersection_count = entry.intersection_count;
    e.union_count = entry.union_count;
    e.period_end = entry.period_end;
    snapshot->entries_.push_back(std::move(e));
  }
  std::sort(snapshot->entries_.begin(), snapshot->entries_.end(),
            [](const ShardSnapshot::Entry& a, const ShardSnapshot::Entry& b) {
              return a.tags < b.tags;
            });
  for (size_t i = 0; i < snapshot->entries_.size(); ++i) {
    snapshot->by_set_.emplace(snapshot->entries_[i].tags,
                              static_cast<uint32_t>(i));
  }

  // Per-tag postings, CSR layout: gather (tag, entry) pairs for the tags
  // this shard owns, order by tag then posting rank, truncate each tag's
  // run to the SpaceSaving-style capacity.
  std::vector<std::pair<TagId, uint32_t>> pairs;
  for (size_t i = 0; i < snapshot->entries_.size(); ++i) {
    for (const TagId tag : snapshot->entries_[i].tags) {
      if (ShardOf(tag) == s) pairs.emplace_back(tag, static_cast<uint32_t>(i));
    }
  }
  const std::vector<ShardSnapshot::Entry>& entries = snapshot->entries_;
  std::sort(pairs.begin(), pairs.end(),
            [&entries](const std::pair<TagId, uint32_t>& a,
                       const std::pair<TagId, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return PostingLess(entries[a.second], entries[b.second]);
            });
  snapshot->postings_offsets_.push_back(0);
  size_t i = 0;
  while (i < pairs.size()) {
    const TagId tag = pairs[i].first;
    size_t run_end = i;
    while (run_end < pairs.size() && pairs[run_end].first == tag) ++run_end;
    const size_t take = std::min(run_end - i, config_.top_k_capacity);
    snapshot->tag_keys_.push_back(tag);
    for (size_t j = i; j < i + take; ++j) {
      snapshot->postings_.push_back(pairs[j].second);
    }
    snapshot->postings_offsets_.push_back(snapshot->postings_.size());
    i = run_end;
  }
  return snapshot;
}

void CorrelationIndex::ExportState(std::string* out) const {
  storage::ByteWriter w;
  w.PutU32(static_cast<uint32_t>(num_shards_));
  w.PutU64(epoch_.load(std::memory_order_acquire));
  w.PutI64(latest_period_.load(std::memory_order_acquire));
  w.PutU64(recent_periods_.size());
  for (const Timestamp t : recent_periods_) w.PutI64(t);
  for (size_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    w.PutU64(shard.builder.size());
    // Insertion order: FlatTagSetMap iterates in it, and restoring in the
    // same order reproduces the builder's internal layout — and therefore
    // every future snapshot — bit for bit.
    for (const auto& [tags, entry] : shard.builder) {
      w.PutU32(static_cast<uint32_t>(tags.size()));
      for (const TagId tag : tags) w.PutU32(tag);
      w.PutDouble(entry.coefficient);
      w.PutU64(entry.intersection_count);
      w.PutU64(entry.union_count);
      w.PutI64(entry.period_end);
    }
  }
  *out = w.str();
}

bool CorrelationIndex::RestoreState(std::string_view blob) {
  storage::ByteReader r(blob);
  uint32_t shards = 0;
  uint64_t epoch = 0;
  int64_t latest = 0;
  uint64_t num_recent = 0;
  if (!r.GetU32(&shards) || !r.GetU64(&epoch) || !r.GetI64(&latest) ||
      !r.GetCount(&num_recent, sizeof(Timestamp))) {
    return false;
  }
  // The shard a tag hashes into depends on the shard count, so a blob from
  // a differently configured index would scatter entries wrongly: refuse.
  if (static_cast<size_t>(shards) != num_shards_) return false;
  std::vector<Timestamp> recent;
  recent.reserve(static_cast<size_t>(num_recent));
  for (uint64_t i = 0; i < num_recent; ++i) {
    int64_t t = 0;
    if (!r.GetI64(&t)) return false;
    recent.push_back(t);
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    shard.builder.clear();
    shard.dirty = false;
    uint64_t entries = 0;
    if (!r.GetU64(&entries)) return false;
    for (uint64_t i = 0; i < entries; ++i) {
      uint32_t num_tags = 0;
      if (!r.GetU32(&num_tags)) return false;
      if (num_tags > static_cast<uint32_t>(kMaxTagsPerDocument)) return false;
      TagId tag_buf[kMaxTagsPerDocument];
      for (uint32_t t = 0; t < num_tags; ++t) {
        if (!r.GetU32(&tag_buf[t])) return false;
        // Exported via TagSet iteration: an unsorted run is damage.
        if (t > 0 && tag_buf[t] <= tag_buf[t - 1]) return false;
      }
      const TagSet tags = TagSet::FromSorted(tag_buf, tag_buf + num_tags);
      BuilderEntry entry;
      if (!r.GetDouble(&entry.coefficient) ||
          !r.GetU64(&entry.intersection_count) ||
          !r.GetU64(&entry.union_count) || !r.GetI64(&entry.period_end)) {
        return false;
      }
      shard.builder.emplace(tags, entry);
    }
  }
  recent_periods_ = std::move(recent);
  latest_period_.store(latest, std::memory_order_release);
  epoch_.store(epoch, std::memory_order_release);
  // Republish every shard so readers serve the restored state immediately
  // (the constructor's empty snapshots would otherwise linger until the
  // next dirtying ApplyPeriod).
  for (size_t s = 0; s < num_shards_; ++s) {
    Publish(shards_[s], BuildSnapshot(s, epoch));
  }
  return true;
}

CorrelationIndex::Reader::Reader(const CorrelationIndex* index)
    : index_(index), slots_(index->num_shards_) {}

const ShardSnapshot* CorrelationIndex::Reader::Acquire(size_t shard) const {
  const Shard& s = index_->shards_[shard];
  Slot& slot = slots_[shard];
  const uint64_t version = s.version.load(std::memory_order_acquire);
  if (version != slot.version || slot.snapshot == nullptr) {
    // Snapshot moved (or first touch): pay the slot copy once; every query
    // until the next publish reuses the cached pointer lock-free. The
    // mutex may hand back a snapshot even newer than `version` says — the
    // next poll then refreshes redundantly but harmlessly.
    std::lock_guard<std::mutex> lock(s.slot_mutex);
    slot.snapshot = s.slot;
    slot.version = version;
  }
  return slot.snapshot.get();
}

size_t CorrelationIndex::Reader::TopCorrelated(
    TagId tag, size_t k, std::vector<ScoredSet>* out) const {
  telemetry::LatencyHistogram* hist = index_->query_top_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  out->clear();
  const ShardSnapshot* snapshot = Acquire(index_->ShardOf(tag));
  const auto [postings, available] = snapshot->TopForTag(tag);
  const size_t n = std::min(k, available);
  for (size_t i = 0; i < n; ++i) {
    const ShardSnapshot::Entry& entry = snapshot->entries()[postings[i]];
    out->push_back({entry.tags, entry.coefficient, entry.period_end});
  }
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return n;
}

std::optional<LookupResult> CorrelationIndex::Reader::Lookup(
    const TagSet& tags) const {
  if (tags.empty()) return std::nullopt;
  telemetry::LatencyHistogram* hist = index_->query_lookup_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  // Home shard: the shard of the set's smallest tag (tags are canonical,
  // so tags[0] is the minimum) — the one deterministic owner among the
  // shards the entry is replicated to.
  const ShardSnapshot* snapshot = Acquire(index_->ShardOf(tags[0]));
  const ShardSnapshot::Entry* entry = snapshot->FindSet(tags);
  std::optional<LookupResult> result;
  if (entry != nullptr) {
    result.emplace();
    result->coefficient = entry->coefficient;
    result->intersection_count = entry->intersection_count;
    result->union_count = entry->union_count;
    result->period_end = entry->period_end;
    result->epoch = snapshot->epoch();
  }
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return result;
}

size_t CorrelationIndex::Reader::Snapshot(double min_jaccard,
                                          std::vector<ScoredSet>* out) const {
  telemetry::LatencyHistogram* hist = index_->query_scan_hist_;
  const int64_t t0 = hist != nullptr ? telemetry::MonotonicNanos() : 0;
  out->clear();
  for (size_t s = 0; s < index_->num_shards_; ++s) {
    const ShardSnapshot* snapshot = Acquire(s);
    for (const ShardSnapshot::Entry& entry : snapshot->entries()) {
      if (entry.coefficient < min_jaccard) continue;
      // Replicated entries are emitted by their home shard only.
      if (index_->ShardOf(entry.tags[0]) != s) continue;
      out->push_back({entry.tags, entry.coefficient, entry.period_end});
    }
  }
  std::sort(out->begin(), out->end(),
            [](const ScoredSet& a, const ScoredSet& b) {
              if (a.coefficient != b.coefficient) {
                return a.coefficient > b.coefficient;
              }
              return a.tags < b.tags;
            });
  if (hist != nullptr) {
    const int64_t span = telemetry::MonotonicNanos() - t0;
    hist->Record(span > 0 ? static_cast<uint64_t>(span) : 0u);
  }
  return out->size();
}

size_t CorrelationIndex::Reader::TotalSets() const {
  size_t total = 0;
  for (size_t s = 0; s < index_->num_shards_; ++s) {
    const ShardSnapshot* snapshot = Acquire(s);
    for (const ShardSnapshot::Entry& entry : snapshot->entries()) {
      if (index_->ShardOf(entry.tags[0]) == s) ++total;
    }
  }
  return total;
}

}  // namespace corrtrack::serve
