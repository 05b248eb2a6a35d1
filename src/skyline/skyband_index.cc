#include "skyline/skyband_index.h"

#include <algorithm>

#include "common/bits.h"
#include "common/logging.h"

namespace sitfact {

void SkybandIndex::Attach(MuStore* store, StoragePolicy policy) {
  SITFACT_CHECK(store != nullptr);
  Detach();
  std::lock_guard<std::mutex> lock(mu_);
  store_ = store;
  policy_ = policy;
  live_ = store->NotifiesObservers();
  // Register before priming: the single-writer contract means no mutation
  // can slip between the two, and attaching mid-stream (restored store)
  // starts from the store's current contents either way. ForEachBucket
  // calls straight back into ApplyLocked: the store's visit runs on this
  // thread, under our lock, and never re-enters the index.
  store_->set_bucket_observer(this);
  store_->ForEachBucket([this](const Constraint& c, MeasureMask m,
                               const std::vector<TupleId>& bucket) {
    ApplyLocked(c, m, bucket);
  });
  ++stats_.rebuilds;
}

void SkybandIndex::Detach() {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    store_->set_bucket_observer(nullptr);
    store_ = nullptr;
  }
  live_ = false;
  ClearLocked();
}

bool SkybandIndex::attached() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_ != nullptr;
}

bool SkybandIndex::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

void SkybandIndex::OnBucketChanged(const Constraint& c, MeasureMask m,
                                   const std::vector<TupleId>& bucket) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.notifications;
  ApplyLocked(c, m, bucket);
}

void SkybandIndex::ApplyLocked(const Constraint& c, MeasureMask m,
                               const std::vector<TupleId>& bucket) {
  auto it = families_.find(c);
  if (it == families_.end()) {
    if (bucket.empty()) return;
    it = families_.emplace(c, Family()).first;
    ++stats_.families;
  }
  Family& family = it->second;
  auto band = std::lower_bound(
      family.begin(), family.end(), m,
      [](const Band& b, MeasureMask mask) { return b.mask < mask; });
  if (band != family.end() && band->mask == m) {
    stats_.members -= band->members.size();
    if (bucket.empty()) {
      family.erase(band);
      --stats_.bands;
      if (family.empty()) {
        families_.erase(it);
        --stats_.families;
      }
      return;
    }
    band->members = bucket;
    stats_.members += bucket.size();
    return;
  }
  if (bucket.empty()) return;
  Band fresh;
  fresh.mask = m;
  fresh.members = bucket;
  family.insert(band, std::move(fresh));
  ++stats_.bands;
  stats_.members += bucket.size();
}

void SkybandIndex::ClearLocked() {
  families_.clear();
  stats_.families = 0;
  stats_.bands = 0;
  stats_.members = 0;
}

const SkybandIndex::Band* SkybandIndex::FindBandLocked(const Constraint& c,
                                                       MeasureMask m) const {
  auto it = families_.find(c);
  if (it == families_.end()) return nullptr;
  const Family& family = it->second;
  auto band = std::lower_bound(
      family.begin(), family.end(), m,
      [](const Band& b, MeasureMask mask) { return b.mask < mask; });
  if (band == family.end() || band->mask != m) return nullptr;
  return &*band;
}

uint64_t SkybandIndex::SkylineSize(const Constraint& c, MeasureMask m) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.size_probes;
  const Band* band = FindBandLocked(c, m);
  return band == nullptr ? 0 : band->members.size();
}

uint64_t SkybandIndex::UnionSkylineSize(const Relation& r, const Constraint& c,
                                        MeasureMask m) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.union_probes;
  // Mirrors ProminenceEvaluator's Invariant-2 walk over the store, band for
  // bucket: tuples stored at an ancestor-or-self of C, filtered for
  // satisfaction of C (self needs no filter), deduplicated (a tuple may sit
  // at two incomparable maximal constraints).
  union_scratch_.clear();
  ForEachSubset(c.bound_mask(), [&](DimMask sub) {
    const Band* band = FindBandLocked(c.Restrict(sub), m);
    if (band == nullptr) return;
    for (TupleId t : band->members) {
      if (sub == c.bound_mask() || c.SatisfiedBy(r, t)) {
        union_scratch_.push_back(t);
      }
    }
  });
  std::sort(union_scratch_.begin(), union_scratch_.end());
  union_scratch_.erase(
      std::unique(union_scratch_.begin(), union_scratch_.end()),
      union_scratch_.end());
  return union_scratch_.size();
}

SkybandIndex::Stats SkybandIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SkybandIndex::ApproxMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = families_.size() *
                 (sizeof(Constraint) + sizeof(Family) + 2 * sizeof(void*));
  for (const auto& [c, family] : families_) {
    total += family.capacity() * sizeof(Band);
    for (const Band& band : family) {
      total += band.members.capacity() * sizeof(TupleId);
    }
  }
  return total;
}

}  // namespace sitfact
