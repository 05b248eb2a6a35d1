#include "core/prominence.h"

#include <algorithm>
#include <array>

#include "common/bits.h"
#include "common/logging.h"

namespace sitfact {

ProminenceEvaluator::ProminenceEvaluator(const Relation* relation,
                                         const ContextCounter* counter,
                                         MuStore* store, StoragePolicy policy)
    : relation_(relation), counter_(counter), store_(store), policy_(policy) {}

uint64_t ProminenceEvaluator::SkylineSize(const SkylineFact& fact) {
  const Constraint& c = fact.constraint;
  MeasureMask m = fact.subspace;
  if (policy_ == StoragePolicy::kAllSkylineConstraints) {
    MuStore::Context* ctx = store_->Find(c);
    return ctx == nullptr ? 0 : ctx->Size(m);
  }
  // Invariant 2: λ_M(σ_C(R)) = tuples satisfying C that are stored at some
  // ancestor-or-self of C. A tuple may sit at two incomparable maximal
  // constraints that both subsume C, so the union deduplicates.
  union_scratch_.clear();
  ForEachSubset(c.bound_mask(), [&](DimMask sub) {
    Constraint anc = c.Restrict(sub);
    MuStore::Context* ctx = store_->Find(anc);
    if (ctx == nullptr || ctx->Empty(m)) return;
    ctx->Read(m, &scratch_);
    for (TupleId t : scratch_) {
      if (sub == c.bound_mask() || c.SatisfiedBy(*relation_, t)) {
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

RankedFact ProminenceEvaluator::Evaluate(const SkylineFact& fact) {
  RankedFact out;
  out.fact = fact;
  out.context_size = counter_->Count(fact.constraint);
  out.skyline_size = SkylineSize(fact);
  SITFACT_DCHECK(out.skyline_size > 0);
  out.prominence = out.skyline_size == 0
                       ? 0.0
                       : static_cast<double>(out.context_size) /
                             static_cast<double>(out.skyline_size);
  return out;
}

std::vector<RankedFact> ProminenceEvaluator::RankAll(
    const std::vector<SkylineFact>& facts) {
  std::vector<RankedFact> ranked(facts.size());
  if (facts.empty()) return ranked;
  SITFACT_DCHECK(std::is_sorted(facts.begin(), facts.end()));

  // The anchor binds every attribute some fact binds, with that fact's
  // value; each fact's constraint is then anchor.Restrict(its mask).
  DimMask anchor_mask = 0;
  std::array<ValueId, kMaxDimensions> values{};
  for (const SkylineFact& f : facts) {
    const Constraint& c = f.constraint;
    ForEachBit(c.bound_mask() & ~anchor_mask,
               [&](int d) { values[d] = c.value(d); });
    anchor_mask |= c.bound_mask();
  }
  anchor_values_.clear();
  ForEachBit(anchor_mask, [&](int d) { anchor_values_.push_back(values[d]); });
  const Constraint anchor = Constraint::FromBoundValues(
      facts.front().constraint.num_dims(), anchor_mask, anchor_values_);
  SITFACT_DCHECK(std::all_of(facts.begin(), facts.end(),
                             [&](const SkylineFact& f) {
                               return f.constraint ==
                                      anchor.Restrict(f.constraint.bound_mask());
                             }));

  // Canonical order keeps equal constraints adjacent: one counter probe
  // (and, under Invariant 1, one store lookup) per distinct constraint.
  const bool all_constraints =
      policy_ == StoragePolicy::kAllSkylineConstraints;
  for (size_t i = 0; i < facts.size();) {
    const Constraint& c = facts[i].constraint;
    const uint64_t context_size = counter_->Count(c);
    MuStore::Context* ctx = all_constraints ? store_->Find(c) : nullptr;
    for (; i < facts.size() && facts[i].constraint == c; ++i) {
      ranked[i].fact = facts[i];
      ranked[i].context_size = context_size;
      if (ctx != nullptr) ranked[i].skyline_size = ctx->Size(facts[i].subspace);
    }
  }
  if (!all_constraints) CountUnionSizes(anchor, &ranked);

  for (RankedFact& r : ranked) {
    SITFACT_DCHECK(r.skyline_size > 0);
    r.prominence = r.skyline_size == 0
                       ? 0.0
                       : static_cast<double>(r.context_size) /
                             static_cast<double>(r.skyline_size);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedFact& a, const RankedFact& b) {
                     return a.prominence > b.prominence;
                   });
  return ranked;
}

void ProminenceEvaluator::CountUnionSizes(const Constraint& anchor,
                                          std::vector<RankedFact>* ranked) {
  std::vector<RankedFact>& out = *ranked;

  // Each fact's grouping key, and the lattice: every ancestor any fact
  // needs, resolved once. Facts with one mask are adjacent (canonical
  // order), so each distinct mask expands once; nodes the store has never
  // seen drop out here.
  nodes_.clear();
  grouped_.clear();
  for (uint32_t i = 0; i < out.size(); ++i) {
    const SkylineFact& f = out[i].fact;
    const DimMask mask = f.constraint.bound_mask();
    grouped_.push_back({f.subspace, mask, i});
    if (i > 0 && mask == out[i - 1].fact.constraint.bound_mask()) continue;
    ForEachSubset(mask, [&](DimMask sub) { nodes_.push_back({sub, nullptr}); });
  }
  std::sort(nodes_.begin(), nodes_.end(),
            [](const Node& a, const Node& b) { return a.mask < b.mask; });
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end(),
                           [](const Node& a, const Node& b) {
                             return a.mask == b.mask;
                           }),
               nodes_.end());
  for (Node& n : nodes_) n.ctx = store_->Find(anchor.Restrict(n.mask));
  std::erase_if(nodes_, [](const Node& n) { return n.ctx == nullptr; });

  std::sort(grouped_.begin(), grouped_.end(),
            [](const GroupFact& a, const GroupFact& b) {
              return a.subspace < b.subspace;
            });
  for (auto group_begin = grouped_.begin(); group_begin != grouped_.end();) {
    const MeasureMask m = group_begin->subspace;
    const auto group_end =
        std::find_if(group_begin, grouped_.end(),
                     [&](const GroupFact& f) { return f.subspace != m; });

    // Every (node, M) bucket below some fact of the group, read once.
    members_.clear();
    for (const Node& n : nodes_) {
      if (std::none_of(group_begin, group_end, [&](const GroupFact& f) {
            return IsSubsetOf(n.mask, f.mask);
          })) {
        continue;
      }
      const std::vector<TupleId>* bucket = &scratch_;
      if (n.ctx->SupportsDirect()) {
        bucket = n.ctx->Direct(m, /*create=*/false);  // null when absent
        if (bucket == nullptr) continue;
      } else {
        if (n.ctx->Empty(m)) continue;
        n.ctx->Read(m, &scratch_);
      }
      for (TupleId t : *bucket) members_.emplace_back(t, n.mask);
    }

    // A stored tuple joins λ_M(σ_C(R)) for every fact C with some node
    // holding it ⊆ C ⊆ the attributes on which it agrees with the anchor.
    // Its nodes are adjacent after the sort, so a tuple stored at two
    // incomparable maximal constraints still counts once per fact.
    std::sort(members_.begin(), members_.end());
    for (size_t a = 0; a < members_.size();) {
      const TupleId t = members_[a].first;
      size_t b = a;
      while (b < members_.size() && members_[b].first == t) ++b;
      DimMask agree = 0;
      ForEachBit(anchor.bound_mask(), [&](int d) {
        if (relation_->dim(t, d) == anchor.value(d)) agree |= 1u << d;
      });
      for (auto f = group_begin; f != group_end; ++f) {
        if (!IsSubsetOf(f->mask, agree)) continue;
        for (size_t k = a; k < b; ++k) {
          if (IsSubsetOf(members_[k].second, f->mask)) {
            ++out[f->index].skyline_size;
            break;
          }
        }
      }
      a = b;
    }
    group_begin = group_end;
  }
}

std::vector<RankedFact> SelectProminent(const std::vector<RankedFact>& ranked,
                                        double tau) {
  std::vector<RankedFact> out;
  if (ranked.empty()) return out;
  double best = ranked.front().prominence;
  if (best < tau) return out;
  for (const RankedFact& f : ranked) {
    if (f.prominence < best) break;
    out.push_back(f);
  }
  return out;
}

}  // namespace sitfact
