#ifndef SITFACT_CORE_FACT_H_
#define SITFACT_CORE_FACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// One situational fact for a newly arrived tuple: a constraint-measure pair
/// (C, M) whose contextual skyline contains the tuple. The set of these for
/// an arrival is the paper's S_t.
struct SkylineFact {
  Constraint constraint;
  MeasureMask subspace = 0;

  friend bool operator==(const SkylineFact& a, const SkylineFact& b) {
    return a.subspace == b.subspace && a.constraint == b.constraint;
  }
  friend bool operator<(const SkylineFact& a, const SkylineFact& b) {
    if (a.constraint != b.constraint) return a.constraint < b.constraint;
    return a.subspace < b.subspace;
  }
};

/// A fact with its prominence |σ_C(R)| / |λ_M(σ_C(R))| (Sec. VII).
struct RankedFact {
  SkylineFact fact;
  uint64_t context_size = 0;   // |σ_C(R)|, including the new tuple
  uint64_t skyline_size = 0;   // |λ_M(σ_C(R))|, including the new tuple
  double prominence = 0.0;     // context_size / skyline_size
};

/// Sorts facts into the canonical order used when comparing algorithm
/// outputs (constraint mask/values, then subspace).
void CanonicalizeFacts(std::vector<SkylineFact>* facts);

static_assert(kMaxDimensions <= 16 && kMaxMeasures <= 16,
              "ArrivalOrderKey packs both masks into 32 bits");

/// Canonical-order key of one fact of an arrival. Every fact of an arrival
/// binds the arriving tuple's values, so two of them with one bound mask
/// have equal constraints, and ascending (bound mask, subspace) is exactly
/// CanonicalizeFacts's order among them.
inline uint32_t ArrivalOrderKey(const SkylineFact& f) {
  return f.constraint.bound_mask() << 16 | f.subspace;
}

/// CanonicalizeFacts for the facts of one arrival: radix-sorts their keys,
/// then moves each fact into place once. The order every engine gives
/// ArrivalReport::facts.
void OrderArrivalFacts(std::vector<SkylineFact>* facts);

/// "(month=Feb) x {points, rebounds}" rendering for logs and examples.
std::string FactToString(const Relation& r, const SkylineFact& fact);

/// Renders the measure subspace as "{points, rebounds}".
std::string SubspaceToString(const Schema& schema, MeasureMask m);

}  // namespace sitfact

#endif  // SITFACT_CORE_FACT_H_
