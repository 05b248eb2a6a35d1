#include "core/prominence.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/bits.h"
#include "common/logging.h"
#include "common/radix_sort.h"

namespace sitfact {

namespace {

constexpr uint32_t kNoHeld = UINT32_MAX;

double Prominence(uint64_t context_size, uint64_t skyline_size) {
  return skyline_size == 0 ? 0.0
                           : static_cast<double>(context_size) /
                                 static_cast<double>(skyline_size);
}

/// Radix key of a prominence, ascending as the prominence descends.
/// Prominences are never negative or NaN, so their bit patterns order like
/// their values.
uint64_t DescendingKey(double prominence) {
  SITFACT_DCHECK(prominence >= 0.0);
  return ~std::bit_cast<uint64_t>(prominence);
}

}  // namespace

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
  out.prominence = Prominence(out.context_size, out.skyline_size);
  return out;
}

std::vector<RankedFact> ProminenceEvaluator::RankAll(
    const std::vector<SkylineFact>& facts) {
  std::vector<RankedFact> ranked;
  if (facts.empty()) return ranked;
  SITFACT_DCHECK(std::is_sorted(facts.begin(), facts.end()));
  const auto n = static_cast<uint32_t>(facts.size());

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

  // Canonical order keeps facts with one mask (hence one constraint)
  // adjacent: one counter probe (and, under Invariant 1, one store lookup)
  // per distinct constraint.
  const bool all_constraints =
      policy_ == StoragePolicy::kAllSkylineConstraints;
  counts_.assign(n, Counts{});
  for (uint32_t i = 0; i < n;) {
    const Constraint& c = facts[i].constraint;
    const uint64_t context_size = counter_->Count(c);
    MuStore::Context* ctx = all_constraints ? store_->Find(c) : nullptr;
    for (; i < n && facts[i].constraint.bound_mask() == c.bound_mask(); ++i) {
      counts_[i].context_size = context_size;
      if (ctx != nullptr) {
        counts_[i].skyline_size = ctx->Size(facts[i].subspace);
      }
    }
  }
  if (!all_constraints) CountUnionSizes(anchor, facts);

  for (Counts& c : counts_) {
    SITFACT_DCHECK(c.skyline_size > 0);
    c.prominence = Prominence(c.context_size, c.skyline_size);
  }
  rank_order_.items.resize(n);
  for (uint32_t i = 0; i < n; ++i) rank_order_.items[i].position = i;
  SortRanked([&](uint32_t i) { return counts_[i].prominence; }, &rank_order_);
  ranked.reserve(n);
  for (const KeyedPosition& o : rank_order_.items) {
    const Counts& c = counts_[o.position];
    ranked.push_back(
        {facts[o.position], c.context_size, c.skyline_size, c.prominence});
  }
  return ranked;
}

void ProminenceEvaluator::CountUnionSizes(
    const Constraint& anchor, const std::vector<SkylineFact>& facts) {
  const auto n = static_cast<uint32_t>(facts.size());

  // The lattice: every ancestor any fact needs, resolved once. Facts with
  // one mask are adjacent (canonical order), so each distinct mask expands
  // once; nodes the store has never seen drop out here.
  nodes_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const DimMask mask = facts[i].constraint.bound_mask();
    if (i > 0 && mask == facts[i - 1].constraint.bound_mask()) continue;
    ForEachSubset(mask, [&](DimMask sub) { nodes_.push_back({sub, nullptr}); });
  }
  std::sort(nodes_.begin(), nodes_.end(),
            [](const Node& a, const Node& b) { return a.mask < b.mask; });
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end(),
                           [](const Node& a, const Node& b) {
                             return a.mask == b.mask;
                           }),
               nodes_.end());
  for (Node& node : nodes_) node.ctx = store_->Find(anchor.Restrict(node.mask));
  std::erase_if(nodes_, [](const Node& node) { return node.ctx == nullptr; });

  // Group the facts by subspace with a counting pass: count each group,
  // lay the groups out back to back, then place each fact.
  groups_.clear();
  for (const SkylineFact& f : facts) {
    if (f.subspace >= group_of_.size()) group_of_.resize(f.subspace + 1, 0);
    uint32_t& g = group_of_[f.subspace];
    if (g == 0) {
      groups_.push_back({f.subspace, 0, 0});
      g = static_cast<uint32_t>(groups_.size());
    }
    ++groups_[g - 1].end;
  }
  uint32_t offset = 0;
  for (Group& g : groups_) {
    const uint32_t size = g.end;
    g.begin = g.end = offset;
    offset += size;
  }
  group_masks_.resize(n);
  group_facts_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    Group& g = groups_[group_of_[facts[i].subspace] - 1];
    group_masks_[g.end] = facts[i].constraint.bound_mask();
    group_facts_[g.end++] = i;
  }
  for (const Group& g : groups_) group_of_[g.subspace] = 0;
  group_counts_.assign(n, 0);
  hit_.resize(n);

  // One epoch for the arrival's agree masks and one per group. Restart the
  // stamps before they could wrap within this arrival.
  if (slots_.size() < relation_->size()) slots_.resize(relation_->size());
  if (epoch_ > UINT32_MAX - groups_.size() - 1) {
    std::fill(slots_.begin(), slots_.end(), TupleSlot{});
    epoch_ = 0;
  }
  const uint32_t arrival_epoch = ++epoch_;

  for (const Group& g : groups_) {
    const uint32_t group_epoch = ++epoch_;
    const DimMask* masks = group_masks_.data() + g.begin;
    const uint32_t size = g.end - g.begin;

    // Gather: every (node, M) bucket below some fact of the group, read
    // once; each stored tuple enters uniques_ once, with the chain of the
    // nodes holding it (two, when it sits at two incomparable maximal
    // constraints).
    uniques_.clear();
    held_.clear();
    for (const Node& node : nodes_) {
      bool below_a_fact = false;
      for (uint32_t k = 0; k < size; ++k) {
        below_a_fact |= IsSubsetOf(node.mask, masks[k]);
      }
      if (!below_a_fact) continue;
      const std::vector<TupleId>* bucket = &scratch_;
      if (node.ctx->SupportsDirect()) {
        bucket = node.ctx->Direct(g.subspace, /*create=*/false);
        if (bucket == nullptr) continue;  // absent
      } else {
        if (node.ctx->Empty(g.subspace)) continue;
        node.ctx->Read(g.subspace, &scratch_);
      }
      for (TupleId t : *bucket) {
        TupleSlot& slot = slots_[t];
        if (slot.agree_epoch != arrival_epoch) {
          DimMask agree = 0;
          ForEachBit(anchor.bound_mask(), [&](int d) {
            if (relation_->dim(t, d) == anchor.value(d)) agree |= 1u << d;
          });
          slot.agree = agree;
          slot.agree_epoch = arrival_epoch;
        }
        SITFACT_DCHECK(IsSubsetOf(node.mask, slot.agree));
        if (slot.group_epoch != group_epoch) {
          slot.group_epoch = group_epoch;
          slot.held = kNoHeld;
          uniques_.push_back(t);
        }
        held_.push_back({node.mask, slot.held});
        slot.held = static_cast<uint32_t>(held_.size() - 1);
      }
    }

    // Credit: a stored tuple joins λ_M(σ_C(R)) for every fact C with some
    // node holding it ⊆ C ⊆ the attributes on which it agrees with the
    // anchor — once, however many nodes hold it.
    uint32_t* counts = group_counts_.data() + g.begin;
    uint32_t* hit = hit_.data();
    for (TupleId t : uniques_) {
      const TupleSlot& slot = slots_[t];
      std::fill(hit, hit + size, 0);
      for (uint32_t h = slot.held; h != kNoHeld; h = held_[h].next) {
        const DimMask held = held_[h].mask;
        for (uint32_t k = 0; k < size; ++k) {
          hit[k] |= IsSubsetOf(held, masks[k]);
        }
      }
      for (uint32_t k = 0; k < size; ++k) {
        counts[k] += hit[k] & IsSubsetOf(masks[k], slot.agree);
      }
    }
  }
  for (uint32_t k = 0; k < n; ++k) {
    counts_[group_facts_[k]].skyline_size = group_counts_[k];
  }
}

template <typename ProminenceAt>
void ProminenceEvaluator::SortRanked(ProminenceAt prominence,
                                     RankOrder* order) {
  // A stable counting sort over the distinct prominences, which are few
  // (~20 among the ~1,170 facts of an NBA arrival): intern each in an
  // open-addressing table, sort the distinct ones, then place every fact
  // after all facts of a higher prominence and after its canonical
  // predecessors of the same one.
  std::vector<KeyedPosition>& items = order->items;
  const size_t n = items.size();
  if (n < 2) return;
  const int bits = std::bit_width(2 * n);
  const size_t slots = size_t{1} << bits;  // > 2n: at most half full
  order->table.assign(slots, 0);
  order->distinct.clear();
  order->ids.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = DescendingKey(prominence(items[i].position));
    size_t h = (key * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    while (order->table[h] != 0 &&
           order->distinct[order->table[h] - 1].key != key) {
      h = (h + 1) & (slots - 1);
    }
    if (order->table[h] == 0) {
      const auto id = static_cast<uint32_t>(order->distinct.size());
      order->distinct.push_back({key, id});
      order->table[h] = id + 1;
    }
    order->ids[i] = order->table[h] - 1;
  }
  std::sort(order->distinct.begin(), order->distinct.end(),
            [](const KeyedPosition& a, const KeyedPosition& b) {
              return a.key < b.key;
            });
  // starts[id]: the first output slot of the facts with distinct value id.
  order->starts.assign(order->distinct.size(), 0);
  for (uint32_t id : order->ids) ++order->starts[id];
  uint32_t offset = 0;
  for (const KeyedPosition& d : order->distinct) {
    offset += std::exchange(order->starts[d.position], offset);
  }
  order->buffer.resize(n);
  for (size_t i = 0; i < n; ++i) {
    order->buffer[order->starts[order->ids[i]]++] = items[i];
  }
  items.swap(order->buffer);
}

void ProminenceEvaluator::OrderRanked(std::vector<RankedFact>* ranked) {
  const std::vector<RankedFact>& in = *ranked;
  const auto n = static_cast<uint32_t>(in.size());
  RankOrder order;
  order.items.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    order.items[i] = {ArrivalOrderKey(in[i].fact), i};
  }
  RadixSortByKey(&order.items, &order.buffer);
  SortRanked([&](uint32_t i) { return in[i].prominence; }, &order);
  std::vector<RankedFact> out;
  out.reserve(n);
  for (const KeyedPosition& o : order.items) out.push_back(in[o.position]);
  *ranked = std::move(out);
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
