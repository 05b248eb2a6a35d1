#include "query/fact_index.h"

#include <algorithm>
#include <bit>
#include <ranges>
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

bool ByBoundMask(const ArrivalBlock::ContextSize& a,
                 const ArrivalBlock::ContextSize& b) {
  return a.bound_mask < b.bound_mask;
}

/// TopK order: prominence descending, record id ascending.
bool TopKBefore(double pa, uint32_t ia, double pb, uint32_t ib) {
  if (pa != pb) return pa > pb;
  return ia < ib;
}

/// The part of `f` every fact of one arrival shares, decided once per
/// block from its directory entry and summaries.
bool ArrivalMatches(const FactFilter& f,
                    const FactIndexSnapshot::ArrivalEntry& entry,
                    uint64_t seq) {
  const ArrivalBlock& block = *entry.block;
  if (!f.include_dead && !entry.live) return false;
  if (f.tuple.has_value() && block.tuple != *f.tuple) return false;
  if (seq < f.min_arrival || seq > f.max_arrival) return false;
  if (f.bound_mask.has_value() && !block.HasBoundMask(*f.bound_mask)) {
    return false;
  }
  if (f.subspace.has_value() && !block.HasSubspace(*f.subspace)) return false;
  if (f.prominent_only && block.prominent_count == 0) return false;
  // A fact's constraint is the arrival's restricted to the fact's bound
  // mask: it binds every attribute `about` does exactly when the masks nest
  // (FactMatches), and then with the arrival's values.
  return !f.about.has_value() || block.constraint.SubsumedByOrEqual(*f.about);
}

/// The per-fact rest of `f`, read off the packed fields of fact `i`.
bool FactMatches(const FactFilter& f, const ArrivalBlock& block, uint32_t i) {
  const PackedFact& p = block.facts[i];
  if (f.bound_mask.has_value() && p.bound_mask != *f.bound_mask) return false;
  if (f.subspace.has_value() && p.subspace != *f.subspace) return false;
  if (f.about.has_value() &&
      !IsSubsetOf(f.about->bound_mask(), p.bound_mask)) {
    return false;
  }
  if (f.prominent_only && i >= block.prominent_count) return false;
  // Prominence is never negative, so only a positive floor can reject.
  return !(f.min_prominence > 0.0 &&
           block.Prominence(i) < f.min_prominence);
}

/// Debug cross-check of a freshly built block against its report: every
/// fact binds the arrival's values, the ranked list is sorted by
/// prominence (TopK's merge relies on it), the numbers recompute
/// bit-identically, and the prominent selection is a prefix of it.
[[maybe_unused]] bool BlockAgreesWithReport(const ArrivalBlock& block,
                                            const ArrivalReport& report) {
  if (!block.ranked) {
    for (uint32_t i = 0; i < block.facts.size(); ++i) {
      const SkylineFact& f = report.facts[i];
      if (f.constraint != block.constraint.Restrict(
                              f.constraint.bound_mask())) {
        return false;
      }
    }
    return true;
  }
  for (uint32_t i = 0; i < block.facts.size(); ++i) {
    const RankedFact& rf = report.ranked[i];
    if ((i > 0 && report.ranked[i - 1].prominence < rf.prominence) ||
        rf.fact.constraint !=
            block.constraint.Restrict(rf.fact.constraint.bound_mask()) ||
        rf.skyline_size != block.facts[i].skyline_size ||
        rf.context_size != block.ContextSizeOf(block.facts[i].bound_mask) ||
        rf.prominence != block.Prominence(i)) {
      return false;
    }
  }
  for (size_t i = 0; i < report.prominent.size(); ++i) {
    if (!(report.prominent[i].fact == report.ranked[i].fact)) return false;
  }
  return true;
}

}  // namespace

uint64_t ArrivalBlock::ContextSizeOf(DimMask bound_mask) const {
  auto it = std::lower_bound(context_sizes.begin(), context_sizes.end(),
                             ContextSize{bound_mask, 0}, ByBoundMask);
  return it != context_sizes.end() && it->bound_mask == bound_mask
             ? it->size
             : 0;
}

bool ArrivalBlock::HasBoundMask(DimMask bound_mask) const {
  return std::binary_search(context_sizes.begin(), context_sizes.end(),
                            ContextSize{bound_mask, 0}, ByBoundMask);
}

bool ArrivalBlock::HasSubspace(MeasureMask subspace) const {
  return std::binary_search(subspaces.begin(), subspaces.end(), subspace);
}

double ArrivalBlock::Prominence(uint32_t i) const {
  const PackedFact& f = facts[i];
  if (!ranked || f.skyline_size == 0) return 0.0;
  const uint64_t context_size = ContextSizeOf(f.bound_mask);
  const uint64_t skyline_size = f.skyline_size;
  return static_cast<double>(context_size) /
         static_cast<double>(skyline_size);
}

size_t ArrivalBlock::ApproxMemoryBytes() const {
  // The object shares one allocation with its shared_ptr control block
  // (two counters and a vtable pointer).
  size_t bytes = sizeof(ArrivalBlock) + 2 * sizeof(void*) +
                 context_sizes.capacity() * sizeof(ContextSize) +
                 subspaces.capacity() * sizeof(MeasureMask) +
                 facts.capacity() * sizeof(PackedFact) +
                 row.dimensions.capacity() * sizeof(std::string) +
                 row.measures.capacity() * sizeof(double);
  const size_t inline_capacity = std::string().capacity();
  for (const std::string& s : row.dimensions) {
    if (s.capacity() > inline_capacity) bytes += s.capacity() + 1;
  }
  return bytes;
}

FactRecord FactIndexSnapshot::record(uint32_t id) const {
  SITFACT_DCHECK(id < fact_count_);
  // The arrival holding `id` is the last one whose run starts at or before
  // it: later arrivals start past it, and an empty arrival sharing its
  // record_begin sorts before it. The samples on either side of `id` bound
  // the search.
  const size_t sample = id / kRecordStride;
  uint64_t lo = record_samples_[sample];
  uint64_t hi = sample + 1 < record_samples_.size()
                    ? uint64_t{record_samples_[sample + 1]} + 1
                    : arrivals_.size();
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (arrivals_[mid].record_begin <= id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const ArrivalEntry& entry = arrivals_[lo];
  const ArrivalBlock& block = *entry.block;
  const uint32_t i = id - entry.record_begin;
  const PackedFact& f = block.facts[i];
  FactRecord rec;
  rec.tuple = block.tuple;
  rec.bound_mask = f.bound_mask;
  rec.arrival_seq = lo;
  rec.subspace = f.subspace;
  rec.live = entry.live;
  if (block.ranked) {
    rec.context_size = block.ContextSizeOf(f.bound_mask);
    rec.skyline_size = f.skyline_size;
    rec.prominence = block.Prominence(i);
    rec.prominent = i < block.prominent_count;
    rec.ranked = true;
  }
  return rec;
}

SkylineFact FactIndexSnapshot::fact(const FactRecord& rec) const {
  return SkylineFact{
      arrivals_[rec.arrival_seq].block->constraint.Restrict(rec.bound_mask),
      rec.subspace};
}

std::string FactIndexSnapshot::narration(const FactRecord& rec) const {
  RankedFact ranked;
  ranked.fact = fact(rec);
  ranked.context_size = rec.context_size;
  ranked.skyline_size = rec.skyline_size;
  ranked.prominence = rec.prominence;
  return FactNarrator::NarrateRow(*schema_, entity_dim_,
                                  arrivals_[rec.arrival_seq].block->row,
                                  ranked);
}

uint32_t FactIndexSnapshot::ArrivalOfTuple(TupleId t) const {
  if (t >= tuple_to_arrival_.size()) return kNoArrival;
  return tuple_to_arrival_[t];
}

size_t FactIndexSnapshot::ApproxMemoryBytes() const {
  size_t bytes = sizeof(FactIndexSnapshot) + block_bytes_ +
                 arrivals_.ApproxMemoryBytes() +
                 tuple_to_arrival_.ApproxMemoryBytes() +
                 record_samples_.ApproxMemoryBytes();
  for (const CowVec<Run>& bucket : by_prominence_) {
    bytes += bucket.ApproxMemoryBytes();
  }
  return bytes;
}

bool FactIndexSnapshot::Head::After(const Head& a, const Head& b) {
  return TopKBefore(b.prominence, b.id, a.prominence, a.id);
}

bool FactIndexSnapshot::Advance(const Run& run, uint32_t from,
                                const FactFilter& filter, Head* head) const {
  const ArrivalEntry& entry = arrivals_[run.seq];
  const ArrivalBlock& block = *entry.block;
  for (uint32_t i = from; i < run.end; ++i) {
    if (!FactMatches(filter, block, i)) continue;
    head->prominence = block.Prominence(i);
    head->id = entry.record_begin + i;
    head->i = i;
    return true;
  }
  return false;
}

void FactIndexSnapshot::OpenBucket(int b, const FactFilter& filter,
                                   const std::optional<TopKCursor>& cursor,
                                   std::vector<Head>* heads) const {
  heads->clear();
  const CowVec<Run>& runs = by_prominence_[b];
  for (uint32_t r = 0; r < runs.size(); ++r) {
    const Run& run = runs[r];
    const ArrivalEntry& entry = arrivals_[run.seq];
    if (!ArrivalMatches(filter, entry, run.seq)) continue;
    uint32_t from = run.begin;
    if (cursor.has_value()) {
      // The run is in TopK order, so what the cursor already served is a
      // prefix of it.
      from = *std::ranges::partition_point(
          std::views::iota(run.begin, run.end), [&](uint32_t i) {
            return !TopKBefore(cursor->prominence, cursor->record_id,
                               entry.block->Prominence(i),
                               entry.record_begin + i);
          });
    }
    Head head{0.0, 0, r, 0};
    if (Advance(run, from, filter, &head)) heads->push_back(head);
  }
  std::make_heap(heads->begin(), heads->end(), Head::After);
}

TopKResult FactIndexSnapshot::TopK(size_t k, const FactFilter& filter,
                                   const std::optional<TopKCursor>& cursor)
    const {
  TopKResult result;
  if (k == 0) return result;

  // Walk the buckets best-first. Any record in bucket b outranks every
  // record in buckets < b, and within a bucket a merge of its runs yields
  // the matches in TopK order, so the walk stops at the k-th match. A
  // cursor also bounds the walk from above: buckets past the cursor's hold
  // only records with strictly greater prominence, all at-or-before the
  // cursor position.
  std::vector<Head> heads;
  double last_prominence = 0.0;
  int b = cursor.has_value() ? ProminenceBucket(cursor->prominence)
                             : kProminenceBuckets - 1;
  for (; b >= 0; --b) {
    OpenBucket(b, filter, cursor, &heads);
    while (!heads.empty() && result.record_ids.size() < k) {
      std::pop_heap(heads.begin(), heads.end(), Head::After);
      Head& head = heads.back();
      result.record_ids.push_back(head.id);
      last_prominence = head.prominence;
      if (Advance(by_prominence_[b][head.run], head.i + 1, filter, &head)) {
        std::push_heap(heads.begin(), heads.end(), Head::After);
      } else {
        heads.pop_back();
      }
    }
    if (result.record_ids.size() == k) break;
  }
  if (result.record_ids.size() < k) return result;  // every bucket drained

  // A full page names a next cursor when its bucket holds more matches, or
  // when it ended with its bucket and lower buckets remain. A shape-pinned
  // page names one only when a further match exists, so it probes them.
  bool more = !heads.empty() || b > 0;
  if (heads.empty() && b > 0 &&
      (filter.bound_mask.has_value() || filter.subspace.has_value())) {
    more = false;
    for (int lower = b - 1; lower >= 0 && !more; --lower) {
      OpenBucket(lower, filter, std::nullopt, &heads);
      more = !heads.empty();
    }
  }
  if (more) {
    result.next = TopKCursor{last_prominence, result.record_ids.back()};
  }
  return result;
}

bool FactIndexSnapshot::ScanArrival(uint64_t seq, const FactFilter& filter,
                                    size_t k,
                                    const std::optional<TopKCursor>& cursor,
                                    TopKResult* out) const {
  const ArrivalEntry& entry = arrivals_[seq];
  const ArrivalBlock& block = *entry.block;
  const auto count = static_cast<uint32_t>(block.facts.size());
  // Record ids ascend with the arrival seq, so a block entirely at or
  // before the cursor is skipped without touching its facts.
  if (cursor.has_value() &&
      static_cast<uint64_t>(entry.record_begin) + count <=
          static_cast<uint64_t>(cursor->record_id) + 1) {
    return false;
  }
  if (!ArrivalMatches(filter, entry, seq)) return false;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = entry.record_begin + i;
    if (cursor.has_value() && id <= cursor->record_id) continue;
    if (!FactMatches(filter, block, i)) continue;
    if (out->record_ids.size() == k) {
      const uint32_t last = out->record_ids.back();
      out->next = TopKCursor{record(last).prominence, last};
      return true;
    }
    out->record_ids.push_back(id);
  }
  return false;
}

TopKResult FactIndexSnapshot::FactsForTuple(
    TupleId t, const FactFilter& filter, size_t k,
    const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  const uint32_t seq = ArrivalOfTuple(t);
  if (seq == kNoArrival || k == 0) return out;
  ScanArrival(seq, filter, k, cursor, &out);
  return out;
}

TopKResult FactIndexSnapshot::FactsInWindow(
    uint64_t first_arrival, uint64_t last_arrival, const FactFilter& filter,
    size_t k, const std::optional<TopKCursor>& cursor) const {
  TopKResult out;
  if (arrivals_.empty() || first_arrival > last_arrival || k == 0) return out;
  const uint64_t end = std::min<uint64_t>(last_arrival, arrivals_.size() - 1);
  for (uint64_t seq = first_arrival; seq <= end; ++seq) {
    if (ScanArrival(seq, filter, k, cursor, &out)) break;
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

std::shared_ptr<const ArrivalBlock> FactIndex::BuildBlock(
    const ArrivalReport& report) {
  auto block = std::make_shared<ArrivalBlock>();
  block->tuple = report.tuple;
  block->constraint = Constraint::ForTuple(
      *relation_, report.tuple, FullMask(work_.schema_->num_dimensions()));
  block->row = relation_->RowOf(report.tuple);
  block->ranked = !report.ranked.empty();

  // Dedupe masks through the dense seen-tables, so building the summaries
  // costs one probe per fact; each table is reset from the summary after.
  auto add = [&](const SkylineFact& fact, uint64_t context_size,
                 uint64_t skyline_size) {
    const DimMask mask = fact.constraint.bound_mask();
    SITFACT_DCHECK(skyline_size <= UINT32_MAX);
    block->facts.push_back(PackedFact{static_cast<uint16_t>(mask),
                                      static_cast<uint16_t>(fact.subspace),
                                      static_cast<uint32_t>(skyline_size)});
    if (!mask_seen_[mask]) {
      mask_seen_[mask] = 1;
      block->context_sizes.push_back({mask, context_size});
    }
    if (!subspace_seen_[fact.subspace]) {
      subspace_seen_[fact.subspace] = 1;
      block->subspaces.push_back(fact.subspace);
    }
  };
  if (block->ranked) {
    block->facts.reserve(report.ranked.size());
    for (const RankedFact& rf : report.ranked) {
      add(rf.fact, rf.context_size, rf.skyline_size);
    }
    block->prominent_count = static_cast<uint32_t>(report.prominent.size());
  } else {
    // Unranked facts carry no numbers (FactRecord::ranked).
    block->facts.reserve(report.facts.size());
    for (const SkylineFact& fact : report.facts) add(fact, 0, 0);
  }
  for (const ArrivalBlock::ContextSize& c : block->context_sizes) {
    mask_seen_[c.bound_mask] = 0;
  }
  for (MeasureMask m : block->subspaces) subspace_seen_[m] = 0;
  std::sort(block->context_sizes.begin(), block->context_sizes.end(),
            ByBoundMask);
  std::sort(block->subspaces.begin(), block->subspaces.end());
  block->context_sizes.shrink_to_fit();
  block->subspaces.shrink_to_fit();
  SITFACT_DCHECK(BlockAgreesWithReport(*block, report));
  return block;
}

void FactIndex::ApplyArrival(const ArrivalReport& report) {
  const auto seq = static_cast<uint32_t>(work_.arrivals_.size());
  if (work_.schema_ == nullptr) {
    work_.schema_ = std::make_shared<const Schema>(relation_->schema());
    mask_seen_.assign(
        static_cast<size_t>(FullMask(work_.schema_->num_dimensions())) + 1,
        0);
    subspace_seen_.assign(
        static_cast<size_t>(FullMask(work_.schema_->num_measures())) + 1, 0);
  }
  std::shared_ptr<const ArrivalBlock> block = BuildBlock(report);
  const auto count = static_cast<uint32_t>(block->facts.size());

  // One run per prominence bucket the block's facts fall in: a ranked
  // block is sorted by prominence, descending, so each bucket's facts are
  // contiguous; an unranked block is one run in bucket 0.
  int bucket = -1;
  uint32_t run_begin = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const int b =
        block->ranked ? ProminenceBucket(report.ranked[i].prominence) : 0;
    if (b == bucket) continue;
    if (bucket >= 0) {
      work_.by_prominence_[bucket].PushBack({seq, run_begin, i});
    }
    bucket = b;
    run_begin = i;
  }
  if (bucket >= 0) {
    work_.by_prominence_[bucket].PushBack({seq, run_begin, count});
  }

  while (work_.tuple_to_arrival_.size() < report.tuple) {
    work_.tuple_to_arrival_.PushBack(FactIndexSnapshot::kNoArrival);
  }
  if (work_.tuple_to_arrival_.size() == report.tuple) {
    work_.tuple_to_arrival_.PushBack(seq);
  } else {
    // An engine never reuses a TupleId; seeing one again means the caller
    // replayed an arrival (at-least-once delivery). Last write wins: the
    // superseded delivery's records die with its directory entry, so no
    // query surface ever serves the same fact twice.
    const uint32_t old_seq = work_.tuple_to_arrival_[report.tuple];
    if (old_seq != FactIndexSnapshot::kNoArrival &&
        work_.arrivals_[old_seq].live) {
      work_.arrivals_.Mutate(old_seq).live = false;
    }
    work_.tuple_to_arrival_.Mutate(report.tuple) = seq;
  }

  FactIndexSnapshot::ArrivalEntry entry;
  entry.record_begin = static_cast<uint32_t>(work_.fact_count_);
  entry.block = std::move(block);
  work_.fact_count_ += count;
  while (work_.record_samples_.size() * FactIndexSnapshot::kRecordStride <
         work_.fact_count_) {
    work_.record_samples_.PushBack(seq);
  }
  work_.block_bytes_ += entry.block->ApproxMemoryBytes();
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
  if (!work_.arrivals_[seq].live) {
    return Status::InvalidArgument("tuple " + std::to_string(t) +
                                   " already removed from the fact index");
  }
  work_.arrivals_.Mutate(seq).live = false;
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
  work_.arrivals_.Seal();
  work_.tuple_to_arrival_.Seal();
  work_.record_samples_.Seal();
  for (auto& bucket : work_.by_prominence_) bucket.Seal();

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
