#include "query/fact_index.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/bits.h"
#include "common/logging.h"
#include "core/narrator.h"

namespace sitfact {

namespace {

/// Bucket index for a prominence value: 0 for p < 1 (unranked records; a
/// ranked fact's prominence is always >= 1 since the skyline is a subset of
/// the context), otherwise floor(log2(p)) + 1 capped at the top bucket.
/// Bucket b > 0 holds p in [2^(b-1), 2^b), so bucket ranges are disjoint
/// and descending-bucket order is coarse descending-prominence order.
int ProminenceBucket(double p) {
  if (!(p >= 1.0)) return 0;
  const auto v = static_cast<uint64_t>(p);
  const int width = std::bit_width(v);  // >= 1 because v >= 1
  return width < FactIndexSnapshot::kProminenceBuckets
             ? width
             : FactIndexSnapshot::kProminenceBuckets - 1;
}

/// TopK order: prominence descending, record id ascending.
bool TopKBefore(double pa, uint32_t ia, double pb, uint32_t ib) {
  if (pa != pb) return pa > pb;
  return ia < ib;
}

/// True when `fact` binds the arrival tuple's own values — what lets a
/// FactRecord keep only C's bound mask.
[[maybe_unused]] bool BindsArrival(const SkylineFact& fact,
                                   const Constraint& arrival) {
  return fact.constraint == arrival.Restrict(fact.constraint.bound_mask());
}

/// The record-id list for `key`, appended empty on first use.
CowVec<uint32_t>& ListFor(
    std::vector<std::pair<uint32_t, CowVec<uint32_t>>>* lists, uint32_t key) {
  for (auto& [k, list] : *lists) {
    if (k == key) return list;
  }
  lists->emplace_back(key, CowVec<uint32_t>());
  return lists->back().second;
}

}  // namespace

bool FactFilter::Matches(const FactRecord& r,
                         const Constraint& arrival) const {
  if (!include_dead && !r.live) return false;
  if (tuple.has_value() && r.tuple != *tuple) return false;
  if (bound_mask.has_value() && r.bound_mask != *bound_mask) return false;
  if (subspace.has_value() && r.subspace != *subspace) return false;
  if (r.arrival_seq < min_arrival || r.arrival_seq > max_arrival) return false;
  if (r.prominence < min_prominence) return false;
  if (prominent_only && !r.prominent) return false;
  // The record's constraint is `arrival` restricted to r.bound_mask: it
  // binds every attribute `about` does exactly when the masks nest, and
  // then with the arrival's values.
  if (about.has_value() &&
      !(IsSubsetOf(about->bound_mask(), r.bound_mask) &&
        arrival.SubsumedByOrEqual(*about))) {
    return false;
  }
  return true;
}

SkylineFact FactIndexSnapshot::fact(uint32_t id) const {
  const FactRecord& rec = records_[id];
  return SkylineFact{
      arrivals_[rec.arrival_seq].constraint.Restrict(rec.bound_mask),
      rec.subspace};
}

std::string FactIndexSnapshot::narration(uint32_t id) const {
  const FactRecord& rec = records_[id];
  RankedFact ranked;
  ranked.fact = fact(id);
  ranked.context_size = rec.context_size;
  ranked.skyline_size = rec.skyline_size;
  ranked.prominence = rec.prominence;
  return FactNarrator::NarrateRow(*schema_, entity_dim_,
                                  *arrivals_[rec.arrival_seq].row, ranked);
}

uint32_t FactIndexSnapshot::ArrivalOfTuple(TupleId t) const {
  if (t >= tuple_to_arrival_.size()) return kNoArrival;
  return tuple_to_arrival_[t];
}

const CowVec<uint32_t>* FactIndexSnapshot::BoundList(DimMask mask) const {
  for (const auto& [k, list] : by_bound_) {
    if (k == mask) return &list;
  }
  return nullptr;
}

const CowVec<uint32_t>* FactIndexSnapshot::SubspaceList(
    MeasureMask mask) const {
  for (const auto& [k, list] : by_subspace_) {
    if (k == mask) return &list;
  }
  return nullptr;
}

TopKResult FactIndexSnapshot::TopK(size_t k, const FactFilter& filter,
                                   const std::optional<TopKCursor>& cursor)
    const {
  TopKResult result;
  if (k == 0) return result;

  std::vector<uint32_t> candidates;
  bool stopped_early = false;
  if (filter.bound_mask.has_value() || filter.subspace.has_value()) {
    // Shape-pinned filters scan their secondary index instead of the
    // prominence buckets: the list holds exactly the records of that
    // constraint shape / measure subspace, typically a small fraction of
    // the index. A mask the index never saw has no list — zero matches.
    const CowVec<uint32_t>* source = filter.bound_mask.has_value()
                                         ? BoundList(*filter.bound_mask)
                                         : SubspaceList(*filter.subspace);
    if (source != nullptr) {
      for (size_t i = 0; i < source->size(); ++i) {
        const uint32_t id = (*source)[i];
        const FactRecord& rec = records_[id];
        if (cursor.has_value() &&
            !TopKBefore(cursor->prominence, cursor->record_id,
                        rec.prominence, id)) {
          continue;
        }
        if (filter.Matches(rec, arrivals_[rec.arrival_seq].constraint)) {
          candidates.push_back(id);
        }
      }
    }
  } else {
    // Gather filtered candidates bucket by bucket, best bucket first. Any
    // record in bucket b outranks every record in buckets < b, so once a
    // finished bucket leaves us with >= k candidates the rest cannot
    // improve the page. A cursor also bounds the walk from above: buckets
    // past the cursor's hold only records with strictly greater prominence,
    // which are all at-or-before the cursor position.
    const int start = cursor.has_value()
                          ? ProminenceBucket(cursor->prominence)
                          : kProminenceBuckets - 1;
    for (int b = start; b >= 0; --b) {
      const CowVec<uint32_t>& bucket = by_prominence_[b];
      for (size_t i = 0; i < bucket.size(); ++i) {
        const uint32_t id = bucket[i];
        const FactRecord& rec = records_[id];
        if (cursor.has_value() &&
            !TopKBefore(cursor->prominence, cursor->record_id,
                        rec.prominence, id)) {
          continue;  // at or before the cursor position; already served
        }
        if (filter.Matches(rec, arrivals_[rec.arrival_seq].constraint)) {
          candidates.push_back(id);
        }
      }
      if (candidates.size() >= k && b > 0) {
        stopped_early = true;
        break;
      }
    }
  }

  std::sort(candidates.begin(), candidates.end(),
            [this](uint32_t a, uint32_t b) {
              return TopKBefore(records_[a].prominence, a,
                                records_[b].prominence, b);
            });
  const size_t take = std::min(k, candidates.size());
  result.record_ids.assign(candidates.begin(), candidates.begin() + take);
  if (take > 0 && (candidates.size() > take || stopped_early)) {
    const uint32_t last = result.record_ids.back();
    result.next = TopKCursor{records_[last].prominence, last};
  }
  return result;
}

TopKResult FactIndexSnapshot::FactsForTuple(
    TupleId t, const FactFilter& filter, size_t k,
    const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  const uint32_t seq = ArrivalOfTuple(t);
  if (seq == kNoArrival || k == 0) return out;
  const ArrivalEntry& entry = arrivals_[seq];
  for (uint32_t i = 0; i < entry.record_count; ++i) {
    const uint32_t id = entry.record_begin + i;
    if (cursor.has_value() && id <= cursor->record_id) continue;
    if (!filter.Matches(records_[id], entry.constraint)) continue;
    if (out.record_ids.size() == k) {
      const uint32_t last = out.record_ids.back();
      out.next = TopKCursor{records_[last].prominence, last};
      return out;
    }
    out.record_ids.push_back(id);
  }
  return out;
}

TopKResult FactIndexSnapshot::FactsInWindow(
    uint64_t first_arrival, uint64_t last_arrival, const FactFilter& filter,
    size_t k, const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  if (arrivals_.empty() || first_arrival > last_arrival || k == 0) return out;
  const uint64_t end = std::min<uint64_t>(last_arrival, arrivals_.size() - 1);
  for (uint64_t seq = first_arrival; seq <= end; ++seq) {
    const ArrivalEntry& entry = arrivals_[seq];
    // Record runs are appended in arrival order, so a run entirely at or
    // before the cursor can be skipped without touching its records.
    if (cursor.has_value() &&
        static_cast<uint64_t>(entry.record_begin) + entry.record_count <=
            static_cast<uint64_t>(cursor->record_id) + 1) {
      continue;
    }
    for (uint32_t i = 0; i < entry.record_count; ++i) {
      const uint32_t id = entry.record_begin + i;
      if (cursor.has_value() && id <= cursor->record_id) continue;
      if (!filter.Matches(records_[id], entry.constraint)) continue;
      if (out.record_ids.size() == k) {
        const uint32_t last = out.record_ids.back();
        out.next = TopKCursor{records_[last].prominence, last};
        return out;
      }
      out.record_ids.push_back(id);
    }
  }
  return out;
}

FactIndex::FactIndex(const Relation* relation, Options options)
    : relation_(relation), options_(options) {
  SITFACT_CHECK(relation != nullptr);
  SITFACT_CHECK(options_.publish_every >= 1);
  work_.entity_dim_ = options_.entity_dim;
  Publish();  // Acquire() is never null, even before the first arrival
}

void FactIndex::AddRecord(const ArrivalReport& report, const SkylineFact& fact,
                          const RankedFact* ranked, uint64_t arrival_seq) {
  const auto id = static_cast<uint32_t>(work_.records_.size());
  FactRecord rec;
  rec.tuple = report.tuple;
  rec.bound_mask = fact.constraint.bound_mask();
  rec.arrival_seq = arrival_seq;
  rec.subspace = fact.subspace;
  if (ranked != nullptr) {
    rec.context_size = ranked->context_size;
    rec.skyline_size = ranked->skyline_size;
    rec.prominence = ranked->prominence;
    rec.ranked = true;
    for (const RankedFact& p : report.prominent) {
      if (p.fact == fact) {
        rec.prominent = true;
        break;
      }
    }
  }

  work_.by_prominence_[ProminenceBucket(rec.prominence)].PushBack(id);
  ListFor(&work_.by_bound_, rec.bound_mask).PushBack(id);
  ListFor(&work_.by_subspace_, rec.subspace).PushBack(id);
  work_.records_.PushBack(rec);
}

void FactIndex::ApplyArrival(const ArrivalReport& report) {
  const uint64_t arrival_seq = work_.arrivals_.size();
  if (work_.schema_ == nullptr) {
    work_.schema_ = std::make_shared<const Schema>(relation_->schema());
  }
  FactIndexSnapshot::ArrivalEntry entry;
  entry.tuple = report.tuple;
  entry.record_begin = static_cast<uint32_t>(work_.records_.size());
  entry.constraint = Constraint::ForTuple(
      *relation_, report.tuple, FullMask(work_.schema_->num_dimensions()));
  entry.row = std::make_shared<const Row>(relation_->RowOf(report.tuple));

  // Ranked order when the engine ranked (prominence descending — the order
  // pagination serves ties in); canonical fact order otherwise.
  if (!report.ranked.empty()) {
    for (const RankedFact& rf : report.ranked) {
      SITFACT_DCHECK(BindsArrival(rf.fact, entry.constraint));
      AddRecord(report, rf.fact, &rf, arrival_seq);
    }
  } else {
    for (const SkylineFact& fact : report.facts) {
      SITFACT_DCHECK(BindsArrival(fact, entry.constraint));
      AddRecord(report, fact, nullptr, arrival_seq);
    }
  }

  while (work_.tuple_to_arrival_.size() < report.tuple) {
    work_.tuple_to_arrival_.PushBack(FactIndexSnapshot::kNoArrival);
  }
  if (work_.tuple_to_arrival_.size() == report.tuple) {
    work_.tuple_to_arrival_.PushBack(static_cast<uint32_t>(arrival_seq));
  } else {
    // An engine never reuses a TupleId; seeing one again means the caller
    // replayed an arrival (at-least-once delivery). Last write wins: the
    // superseded delivery's records die with its directory entry, so no
    // query surface ever serves the same fact twice.
    const uint32_t old_seq = work_.tuple_to_arrival_[report.tuple];
    if (old_seq != FactIndexSnapshot::kNoArrival) {
      FactIndexSnapshot::ArrivalEntry& old_entry =
          work_.arrivals_.Mutate(old_seq);
      if (old_entry.live) {
        old_entry.live = false;
        for (uint32_t i = 0; i < old_entry.record_count; ++i) {
          work_.records_.Mutate(old_entry.record_begin + i).live = false;
        }
      }
    }
    work_.tuple_to_arrival_.Mutate(report.tuple) =
        static_cast<uint32_t>(arrival_seq);
  }

  entry.record_count =
      static_cast<uint32_t>(work_.records_.size()) - entry.record_begin;
  work_.arrivals_.PushBack(std::move(entry));

  ++work_.epoch_;
  MaybePublish();
}

Status FactIndex::ApplyRemove(TupleId t) {
  const uint32_t seq = work_.tuple_to_arrival_.size() > t
                           ? work_.tuple_to_arrival_[t]
                           : FactIndexSnapshot::kNoArrival;
  if (seq == FactIndexSnapshot::kNoArrival) {
    return Status::InvalidArgument("fact index never saw tuple " +
                                   std::to_string(t));
  }
  FactIndexSnapshot::ArrivalEntry& entry = work_.arrivals_.Mutate(seq);
  if (!entry.live) {
    return Status::InvalidArgument("tuple " + std::to_string(t) +
                                   " already removed from the fact index");
  }
  entry.live = false;
  for (uint32_t i = 0; i < entry.record_count; ++i) {
    work_.records_.Mutate(entry.record_begin + i).live = false;
  }
  ++work_.epoch_;
  MaybePublish();
  return Status::Ok();
}

Status FactIndex::ApplyUpdate(TupleId removed_tuple,
                              const ArrivalReport& readded) {
  Status removed = ApplyRemove(removed_tuple);
  if (!removed.ok()) return removed;
  ApplyArrival(readded);
  return Status::Ok();
}

void FactIndex::MaybePublish() {
  if (work_.epoch_ - last_published_epoch_ >= options_.publish_every) {
    Publish();
  }
}

void FactIndex::Publish() {
  work_.records_.Seal();
  work_.arrivals_.Seal();
  work_.tuple_to_arrival_.Seal();
  for (auto& bucket : work_.by_prominence_) bucket.Seal();
  for (auto& [mask, list] : work_.by_bound_) list.Seal();
  for (auto& [mask, list] : work_.by_subspace_) list.Seal();

  auto snapshot = std::make_shared<const FactIndexSnapshot>(work_);
  last_published_epoch_ = work_.epoch_;
  std::lock_guard<std::mutex> lock(publish_mu_);
  published_ = std::move(snapshot);
}

std::shared_ptr<const FactIndexSnapshot> FactIndex::Acquire() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

}  // namespace sitfact
