#include "core/fact.h"

#include <algorithm>

#include "common/bits.h"

namespace sitfact {

void CanonicalizeFacts(std::vector<SkylineFact>* facts) {
  std::sort(facts->begin(), facts->end());
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
