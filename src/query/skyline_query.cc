#include "query/skyline_query.h"

#include <algorithm>

#include "skyline/dominance.h"
#include "skyline/skyline_compute.h"

namespace sitfact {

SkylineQueryResult EvaluateContextualSkyline(const Relation& r,
                                             const Constraint& c,
                                             MeasureMask m) {
  SkylineQueryResult result;
  std::vector<TupleId> candidates = SelectContext(r, c, r.size());
  result.context_size = candidates.size();

  std::vector<TupleId>& window = result.skyline;
  for (TupleId t : candidates) {
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      ++result.comparisons;
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
  std::sort(window.begin(), window.end());
  return result;
}

}  // namespace sitfact
