#include "csc/compressed_skycube.h"

#include <algorithm>

#include "common/bits.h"
#include "skyline/dominance.h"

namespace sitfact {

CompressedSkycube::CompressedSkycube(const SubspaceUniverse* universe,
                                     const SubspaceIndex* index)
    : universe_(universe), index_(index) {}

int CompressedSkycube::FindEntry(MeasureMask m) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), m,
      [](const Entry& e, MeasureMask mask) { return e.mask < mask; });
  if (it == entries_.end() || it->mask != m) return -1;
  return static_cast<int>(it - entries_.begin());
}

std::vector<TupleId>* CompressedSkycube::GetBucket(MeasureMask m,
                                                   bool create) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), m,
      [](const Entry& e, MeasureMask mask) { return e.mask < mask; });
  if (it != entries_.end() && it->mask == m) return &it->tuples;
  if (!create) return nullptr;
  it = entries_.insert(it, Entry{m, {}});
  return &it->tuples;
}

const std::vector<TupleId>* CompressedSkycube::bucket(MeasureMask m) const {
  int i = FindEntry(m);
  return i < 0 ? nullptr : &entries_[i].tuples;
}

void CompressedSkycube::EraseEverywhere(TupleId t) {
  for (auto& e : entries_) {
    auto it = std::find(e.tuples.begin(), e.tuples.end(), t);
    if (it != e.tuples.end()) {
      *it = e.tuples.back();
      e.tuples.pop_back();
      --stored_count_;
    }
  }
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [](const Entry& e) {
                                  return e.tuples.empty();
                                }),
                 entries_.end());
}

void CompressedSkycube::StoreAtMinimalSubspaces(
    TupleId t, const std::vector<uint8_t>& skyline_set) {
  const auto& masks = universe_->masks();
  for (size_t i = 0; i < masks.size(); ++i) {
    if (!skyline_set[i]) continue;
    MeasureMask m = masks[i];
    // Minimum subspace: no proper (non-empty) subspace also holds t in its
    // skyline. Subsets of an admissible mask are always admissible.
    bool minimal = true;
    ForEachProperSubset(m, [&](MeasureMask sub) {
      if (!minimal || sub == 0) return;
      int idx = universe_->IndexOf(sub);
      if (idx >= 0 && skyline_set[idx]) minimal = false;
    });
    if (minimal) {
      GetBucket(m, /*create=*/true)->push_back(t);
      ++stored_count_;
    }
  }
}

void CompressedSkycube::Insert(const Relation& r, TupleId t,
                               std::vector<MeasureMask>* skyline_subspaces,
                               uint64_t* comparisons,
                               PartitionMemo* arrival_memo,
                               PartitionMemo* repair_memo) {
  const auto& masks = universe_->masks();

  // 1. t's own skyline memberships, via index probes. Probing against all
  // context members answers the same as Xia & Zhang's stored-tuple scan:
  // both candidate sets contain the subspace skyline (CSC containment), and
  // a dominator chain always terminates at a skyline member, so the
  // membership booleans agree pair for pair.
  index_->ComputeSkylineSet(t, *universe_, arrival_memo, &sky_scratch_,
                            comparisons);
  for (size_t i = 0; i < masks.size(); ++i) {
    if (sky_scratch_[i]) skyline_subspaces->push_back(masks[i]);
  }

  // 2. Store t at its minimum subspaces.
  StoreAtMinimalSubspaces(t, sky_scratch_);

  // 3. Demote stored tuples that t dethrones. A stored tuple's minimum-
  // subspace set changes only when t dominates it in a subspace where it is
  // STORED: removing non-minimal members from a tuple's skyline-subspace set
  // leaves its minimal elements (and hence its storage) untouched. This is
  // the incremental trigger of Xia & Zhang's update; each pair costs one
  // memoized partition.
  demote_scratch_.clear();
  for (const Entry& e : entries_) {
    for (TupleId u : e.tuples) {
      if (u == t) continue;
      ++*comparisons;
      Relation::MeasurePartition local;
      const Relation::MeasurePartition& p =
          arrival_memo != nullptr ? arrival_memo->Get(u)
                                  : (local = r.Partition(t, u));
      if (DominatesInSubspace(p, e.mask)) demote_scratch_.push_back(u);
    }
  }
  if (demote_scratch_.empty()) return;
  std::sort(demote_scratch_.begin(), demote_scratch_.end());
  demote_scratch_.erase(
      std::unique(demote_scratch_.begin(), demote_scratch_.end()),
      demote_scratch_.end());

  // Two-phase recompute per demoted tuple: index-filtered candidates, then
  // exact Prop.-4 verification (through repair_memo when supplied).
  for (TupleId other : demote_scratch_) {
    EraseEverywhere(other);
    if (repair_memo != nullptr) repair_memo->BeginArrival(r, other);
    index_->ComputeSkylineSet(other, *universe_, repair_memo, &sky_scratch_,
                              comparisons);
    StoreAtMinimalSubspaces(other, sky_scratch_);
  }
}

std::vector<TupleId> CompressedSkycube::QuerySkyline(
    MeasureMask m, uint64_t* comparisons) const {
  // Candidates: every tuple stored at a subspace of m, ascending by id (a
  // deterministic probe order, so the billed comparison trace is too). A
  // candidate survives against the candidate set iff it survives against
  // all members (dominator chains terminate at skyline members, which are
  // themselves candidates by CSC containment), so index probes answer it.
  std::vector<TupleId> candidates;
  for (const auto& e : entries_) {
    if (IsSubsetOf(e.mask, m)) {
      candidates.insert(candidates.end(), e.tuples.begin(), e.tuples.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<TupleId> skyline;
  for (TupleId cand : candidates) {
    if (index_->IsSkylineMember(cand, m, nullptr, comparisons)) {
      skyline.push_back(cand);
    }
  }
  return skyline;
}

size_t CompressedSkycube::ApproxMemoryBytes() const {
  size_t bytes = entries_.capacity() * sizeof(Entry);
  for (const auto& e : entries_) {
    bytes += e.tuples.capacity() * sizeof(TupleId);
  }
  return bytes;
}

}  // namespace sitfact
