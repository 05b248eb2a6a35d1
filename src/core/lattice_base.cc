#include "core/lattice_base.h"

#include <algorithm>
#include <utility>

#include "common/bits.h"
#include "common/logging.h"
#include "lattice/constraint_enumerator.h"
#include "skyline/dominance.h"
#include "skyline/skyline_compute.h"

namespace sitfact {

LatticeDiscovererBase::LatticeDiscovererBase(const Relation* relation,
                                             const DiscoveryOptions& options,
                                             std::unique_ptr<MuStore> store)
    : Discoverer(relation, options), store_(std::move(store)) {
  int nd = relation->schema().num_dimensions();
  masks_ascending_ = MasksByAscendingBound(nd, max_bound_);
  masks_descending_ = MasksByDescendingBound(nd, max_bound_);
  size_t dense = static_cast<size_t>(FullMask(nd)) + 1;
  constraint_cache_.resize(dense);
  constraint_cached_.assign(dense, 0);
  context_cache_.assign(dense, nullptr);
  context_resolved_.assign(dense, 0);
}

void LatticeDiscovererBase::BeginArrival(TupleId t) {
  current_tuple_ = t;
  std::fill(constraint_cached_.begin(), constraint_cached_.end(), 0);
  std::fill(context_resolved_.begin(), context_resolved_.end(), 0);
  part_memo_.BeginArrival(*relation_, t);
}

const Constraint& LatticeDiscovererBase::CachedConstraint(DimMask mask) {
  if (!constraint_cached_[mask]) {
    constraint_cache_[mask] =
        Constraint::ForTuple(*relation_, current_tuple_, mask);
    constraint_cached_[mask] = 1;
  }
  return constraint_cache_[mask];
}

MuStore::Context* LatticeDiscovererBase::CachedContext(DimMask mask,
                                                       bool create) {
  // A cached miss stays a miss for the whole arrival unless this arrival
  // creates the context (which refreshes the entry below): the only other
  // creations, ReassignDethroned's, bind a dethroned tuple's value on an
  // attribute where it differs from the arrival's.
  if (context_resolved_[mask] && (context_cache_[mask] != nullptr || !create)) {
    SITFACT_DCHECK(context_cache_[mask] != nullptr ||
                   store_->Find(CachedConstraint(mask)) == nullptr);
    return context_cache_[mask];
  }
  const Constraint& c = CachedConstraint(mask);
  MuStore::Context* ctx =
      create ? store_->GetOrCreate(c) : store_->Find(c);
  if (ctx != nullptr || !create) {
    context_cache_[mask] = ctx;
    context_resolved_[mask] = 1;
  }
  return ctx;
}

size_t LatticeDiscovererBase::ApproxMemoryBytes() const {
  return store_->ApproxMemoryBytes() + part_memo_.ApproxMemoryBytes();
}

Status LatticeDiscovererBase::Remove(TupleId t) {
  const Relation& r = *relation_;
  if (t >= r.size()) {
    return Status::InvalidArgument("no such tuple");
  }
  if (!r.IsDeleted(t)) {
    return Status::InvalidArgument(
        "tuple must be tombstoned (Relation::MarkDeleted) before Remove");
  }

  // The sharing variants maintain full-space buckets even when m̂ < |M|.
  std::vector<MeasureMask> subspace_list = universe_.masks();
  if (!universe_.FullSpaceAdmissible()) {
    subspace_list.insert(subspace_list.begin(), universe_.full_mask());
  }

  if (storage_policy() == StoragePolicy::kAllSkylineConstraints) {
    // Invariant 1 repair: a deleted non-skyline tuple never changes a
    // bucket (anything it dominated is also dominated by one of its own
    // dominators), so only buckets containing t are recomputed.
    std::vector<TupleId> bucket;
    for (DimMask mask : masks_ascending()) {
      Constraint c = Constraint::ForTuple(r, t, mask);
      MuStore::Context* ctx = store_->Find(c);
      if (ctx == nullptr) continue;
      for (MeasureMask m : subspace_list) {
        if (ctx->Empty(m) || !ctx->Contains(m, t)) continue;
        ctx->Write(m, ComputeContextualSkyline(r, c, m, r.size()));
      }
    }
    return Status::Ok();
  }

  // Invariant 2 repair. First drop t itself everywhere it is registered.
  for (DimMask mask : masks_ascending()) {
    MuStore::Context* ctx = store_->Find(Constraint::ForTuple(r, t, mask));
    if (ctx == nullptr) continue;
    for (MeasureMask m : subspace_list) {
      if (!ctx->Empty(m)) ctx->Erase(m, t);
    }
  }
  // Then re-derive the registrations of every victim: a live tuple x is
  // affected in subspace M iff t dominated it there (sharing a context is
  // automatic — ⊤ contains both).
  std::vector<TupleId> msc_sorted;
  for (TupleId x = 0; x < r.size(); ++x) {
    if (x == t || r.IsDeleted(x)) continue;
    Relation::MeasurePartition p = r.Partition(t, x);
    if (p.better == 0) continue;  // t was never strictly better anywhere
    for (MeasureMask m : subspace_list) {
      if (!DominatesInSubspace(p, m)) continue;
      std::vector<DimMask> msc =
          ComputeMaximalSkylineConstraintMasks(r, x, m, max_bound_, r.size());
      msc_sorted.assign(msc.begin(), msc.end());
      std::sort(msc_sorted.begin(), msc_sorted.end());
      for (DimMask mask : masks_ascending()) {
        bool should = std::binary_search(msc_sorted.begin(),
                                         msc_sorted.end(), mask);
        Constraint c = Constraint::ForTuple(r, x, mask);
        MuStore::Context* ctx = store_->Find(c);
        bool present =
            ctx != nullptr && !ctx->Empty(m) && ctx->Contains(m, x);
        if (should && !present) {
          if (ctx == nullptr) ctx = store_->GetOrCreate(c);
          ctx->Insert(m, x);
        } else if (!should && present) {
          ctx->Erase(m, x);
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace sitfact
