#ifndef SITFACT_QUERY_SKYLINE_QUERY_H_
#define SITFACT_QUERY_SKYLINE_QUERY_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// The forward skyline operator. The discovery side of this library answers
/// the paper's *reverse* problem (find the queries for a new tuple); this
/// module answers the classical *forward* one — given a constraint C and a
/// measure subspace M, return the contextual skyline λ_M(σ_C(R)). It backs
/// `sitfact_cli query`.
///
/// The evaluator is block-nested-loops (BNL, Börzsönyi et al. ICDE'01): a
/// window of mutually incomparable tuples, each candidate compared against
/// the window. It is exact; the quadratic oracle in skyline/skyline_compute.h
/// is what the tests check it against.

/// Result of one contextual skyline query.
struct SkylineQueryResult {
  std::vector<TupleId> skyline;  ///< ascending TupleId order
  uint64_t context_size = 0;     ///< |σ_C(R)|, live tuples only
  uint64_t comparisons = 0;      ///< pairwise dominance tests
};

/// λ_M(σ_C(R)) over every live (non-deleted) tuple of `r`.
SkylineQueryResult EvaluateContextualSkyline(const Relation& r,
                                             const Constraint& c,
                                             MeasureMask m);

}  // namespace sitfact

#endif  // SITFACT_QUERY_SKYLINE_QUERY_H_
