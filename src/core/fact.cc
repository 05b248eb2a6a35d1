#include "core/fact.h"

#include <algorithm>

#include "common/bits.h"
#include "common/radix_sort.h"

namespace sitfact {

void CanonicalizeFacts(std::vector<SkylineFact>* facts) {
  std::sort(facts->begin(), facts->end());
}

void OrderArrivalFacts(std::vector<SkylineFact>* facts) {
  std::vector<SkylineFact>& f = *facts;
  const auto n = static_cast<uint32_t>(f.size());
  std::vector<KeyedPosition> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = {ArrivalOrderKey(f[i]), i};
  std::vector<KeyedPosition> scratch;
  RadixSortByKey(&order, &scratch);
  // Position i takes the fact now at order[i].position. Follow each cycle
  // of that permutation once; a filled position points at itself.
  for (uint32_t i = 0; i < n; ++i) {
    if (order[i].position == i) continue;
    const SkylineFact held = f[i];
    uint32_t j = i;
    for (uint32_t k = order[j].position; k != i; k = order[j].position) {
      f[j] = f[k];
      order[j].position = j;
      j = k;
    }
    f[j] = held;
    order[j].position = j;
  }
}

std::string SubspaceToString(const Schema& schema, MeasureMask m) {
  std::string out = "{";
  bool first = true;
  ForEachBit(m, [&](int j) {
    if (!first) out += ", ";
    out += schema.measure(j).name;
    first = false;
  });
  out += "}";
  return out;
}

std::string FactToString(const Relation& r, const SkylineFact& fact) {
  return "(" + fact.constraint.ToPredicateString(r) + ") x " +
         SubspaceToString(r.schema(), fact.subspace);
}

}  // namespace sitfact
