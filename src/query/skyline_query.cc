#include "query/skyline_query.h"

#include <algorithm>
#include <numeric>

#include "common/bits.h"
#include "common/logging.h"
#include "skyline/dominance.h"

namespace sitfact {

namespace {

// Monotone SFS score: the sum of direction-adjusted keys over the subspace.
// If a dominates b in m then score(a) > score(b) strictly (a is >= on every
// measure of m and > on at least one), so sorting by descending score places
// every dominator before its victims.
double SfsScore(const Relation& r, TupleId t, MeasureMask m) {
  double score = 0;
  ForEachBit(m, [&](int j) { score += r.measure_key(t, j); });
  return score;
}

}  // namespace

const char* QueryAlgorithmName(QueryAlgorithm a) {
  switch (a) {
    case QueryAlgorithm::kAuto:
      return "auto";
    case QueryAlgorithm::kBlockNestedLoops:
      return "bnl";
    case QueryAlgorithm::kSortFilter:
      return "sfs";
    case QueryAlgorithm::kDivideConquer:
      return "dnc";
  }
  return "auto";
}

QueryAlgorithm ParseQueryAlgorithm(const std::string& name) {
  if (name == "bnl") return QueryAlgorithm::kBlockNestedLoops;
  if (name == "sfs") return QueryAlgorithm::kSortFilter;
  if (name == "dnc") return QueryAlgorithm::kDivideConquer;
  return QueryAlgorithm::kAuto;
}

QueryAlgorithm ResolveAuto(QueryAlgorithm algo, size_t context_size) {
  if (algo != QueryAlgorithm::kAuto) return algo;
  return context_size <= kAutoSmallContext ? QueryAlgorithm::kBlockNestedLoops
                                           : QueryAlgorithm::kSortFilter;
}

QueryAlgorithm ResolveAuto(QueryAlgorithm algo, size_t context_size,
                           MeasureMask m) {
  if (algo != QueryAlgorithm::kAuto) return algo;
  if (PopCount(m) <= kAutoNarrowMeasures &&
      context_size <= kAutoNarrowContext) {
    return QueryAlgorithm::kBlockNestedLoops;
  }
  return ResolveAuto(algo, context_size);
}

SkylineQueryEngine::SkylineQueryEngine(const Relation* relation)
    : relation_(relation) {
  SITFACT_CHECK(relation != nullptr);
}

SkylineQueryResult SkylineQueryEngine::Evaluate(const Constraint& c,
                                                MeasureMask m,
                                                QueryAlgorithm algo) const {
  std::vector<TupleId> candidates;
  for (TupleId t = 0; t < relation_->size(); ++t) {
    if (!relation_->IsDeleted(t) && c.SatisfiedBy(*relation_, t)) {
      candidates.push_back(t);
    }
  }
  return EvaluateCandidates(std::move(candidates), m, algo);
}

SkylineQueryResult SkylineQueryEngine::EvaluateCandidates(
    std::vector<TupleId> candidates, MeasureMask m,
    QueryAlgorithm algo) const {
  SkylineQueryResult result;
  result.stats.context_size = candidates.size();
  algo = ResolveAuto(algo, candidates.size(), m);
  switch (algo) {
    case QueryAlgorithm::kBlockNestedLoops:
      result.skyline = BlockNestedLoops(std::move(candidates), m,
                                        &result.stats);
      break;
    case QueryAlgorithm::kSortFilter:
      result.skyline = SortFilter(std::move(candidates), m, &result.stats);
      break;
    case QueryAlgorithm::kDivideConquer:
      result.skyline = DivideConquer(std::move(candidates), m, &result.stats);
      break;
    case QueryAlgorithm::kAuto:
      break;  // unreachable; resolved above
  }
  std::sort(result.skyline.begin(), result.skyline.end());
  return result;
}

std::vector<TupleId> SkylineQueryEngine::BlockNestedLoops(
    std::vector<TupleId> candidates, MeasureMask m, QueryStats* stats) const {
  const Relation& r = *relation_;
  std::vector<TupleId> window;
  for (TupleId t : candidates) {
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      ++stats->comparisons;
      if (Dominates(r, window[i], t, m)) {
        dominated = true;
        // Everything after i is untouched; keep the full window as is.
        for (size_t j = i; j < window.size(); ++j) window[keep++] = window[j];
        break;
      }
      if (!Dominates(r, t, window[i], m)) window[keep++] = window[i];
      // Window tuples dominated by t are dropped by not copying them.
    }
    if (dominated) continue;
    window.resize(keep);
    window.push_back(t);
  }
  return window;
}

std::vector<TupleId> SkylineQueryEngine::SortFilter(
    std::vector<TupleId> candidates, MeasureMask m, QueryStats* stats) const {
  const Relation& r = *relation_;
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](TupleId a, TupleId b) {
                     return SfsScore(r, a, m) > SfsScore(r, b, m);
                   });
  std::vector<TupleId> skyline;
  for (TupleId t : candidates) {
    bool dominated = false;
    for (TupleId s : skyline) {
      ++stats->comparisons;
      if (Dominates(r, s, t, m)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) skyline.push_back(t);
  }
  return skyline;
}

std::vector<TupleId> SkylineQueryEngine::DivideConquer(
    std::vector<TupleId> candidates, MeasureMask m, QueryStats* stats) const {
  if (m == 0) return candidates;
  return DncRec(std::move(candidates), m, 0, stats);
}

std::vector<TupleId> SkylineQueryEngine::DncRec(std::vector<TupleId> cands,
                                                MeasureMask m, int depth,
                                                QueryStats* stats) const {
  const Relation& r = *relation_;
  ++stats->recursive_calls;
  if (cands.size() <= kAutoSmallContext) {
    return BlockNestedLoops(std::move(cands), m, stats);
  }

  // Rotate the split axis through the subspace's measures by depth.
  std::vector<int> axes;
  ForEachBit(m, [&](int j) { axes.push_back(j); });
  int axis = axes[static_cast<size_t>(depth) % axes.size()];

  // Median split on the chosen axis: `high` strictly better than the median
  // key, `low` the rest. A low tuple is never better than a high tuple on
  // `axis`, so low tuples cannot dominate high ones and the cross-filter
  // only runs one way.
  std::vector<TupleId> sorted = cands;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end(), [&](TupleId a, TupleId b) {
                     return r.measure_key(a, axis) < r.measure_key(b, axis);
                   });
  double median = r.measure_key(sorted[sorted.size() / 2], axis);

  std::vector<TupleId> low, high;
  for (TupleId t : cands) {
    (r.measure_key(t, axis) > median ? high : low).push_back(t);
  }
  if (high.empty() || low.empty()) {
    // Degenerate split (many ties on this axis). Try the remaining axes at
    // deeper rotation; if every axis degenerates the candidates are heavily
    // tied and BNL is the right tool.
    if (static_cast<size_t>(depth) + 1 < axes.size() * 2) {
      return DncRec(std::move(cands), m, depth + 1, stats);
    }
    return BlockNestedLoops(std::move(cands), m, stats);
  }

  std::vector<TupleId> high_sky = DncRec(std::move(high), m, depth + 1, stats);
  std::vector<TupleId> low_sky = DncRec(std::move(low), m, depth + 1, stats);

  std::vector<TupleId> merged = high_sky;
  for (TupleId t : low_sky) {
    bool dominated = false;
    for (TupleId h : high_sky) {
      ++stats->comparisons;
      if (Dominates(r, h, t, m)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) merged.push_back(t);
  }
  return merged;
}

std::vector<TupleId> SkylineQueryEngine::KSkyband(
    const std::vector<TupleId>& candidates, MeasureMask m, int k) const {
  std::vector<TupleId> band;
  for (TupleId t : candidates) {
    if (CountDominators(t, candidates, m) < static_cast<uint64_t>(k)) {
      band.push_back(t);
    }
  }
  return band;
}

uint64_t SkylineQueryEngine::CountDominators(
    TupleId t, const std::vector<TupleId>& candidates, MeasureMask m) const {
  uint64_t count = 0;
  for (TupleId other : candidates) {
    if (other != t && Dominates(*relation_, other, t, m)) ++count;
  }
  return count;
}

SkylineQueryEngine::OneOfTheFewResult SkylineQueryEngine::OneOfTheFew(
    const std::vector<TupleId>& candidates, MeasureMask m, int tau) const {
  // Dominator counts induce the whole skyband ladder at once: the k-skyband
  // is everything with count < k, so the band sizes are a running histogram.
  std::vector<std::pair<uint64_t, TupleId>> counted;
  counted.reserve(candidates.size());
  for (TupleId t : candidates) {
    counted.emplace_back(CountDominators(t, candidates, m), t);
  }
  std::sort(counted.begin(), counted.end());

  OneOfTheFewResult result;
  // Walk k upward while the band (prefix with count < k) stays within tau.
  size_t idx = 0;
  for (int k = 1;; ++k) {
    while (idx < counted.size() &&
           counted[idx].first < static_cast<uint64_t>(k)) {
      ++idx;
    }
    if (idx > static_cast<size_t>(tau)) break;
    result.k = k;
    if (idx == counted.size()) break;  // the whole context fits; k is maximal
  }
  if (result.k > 0) {
    for (const auto& [count, t] : counted) {
      if (count < static_cast<uint64_t>(result.k)) result.band.push_back(t);
    }
    std::sort(result.band.begin(), result.band.end());
  }
  return result;
}

}  // namespace sitfact
