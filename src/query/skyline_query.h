#ifndef SITFACT_QUERY_SKYLINE_QUERY_H_
#define SITFACT_QUERY_SKYLINE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"

namespace sitfact {

/// One-shot skyline query algorithms. The discovery side of this library
/// answers the paper's *reverse* problem (find the queries for a new tuple);
/// this module answers the classical *forward* problem — given a constraint
/// and a measure subspace, return the contextual skyline λ_M(σ_C(R)).
///
/// Three from-scratch evaluators are provided:
///  * Block-nested-loops (BNL, Börzsönyi et al. ICDE'01): a window of
///    incomparable tuples, each candidate compared against the window.
///  * Sort-filter-skyline (SFS, Chomicki et al.): candidates presorted by a
///    monotone score so any dominator of a tuple precedes it; every survivor
///    is final when visited, and comparisons run against confirmed skyline
///    tuples only.
///  * Divide-and-conquer (Börzsönyi et al.): median split on one measure,
///    recursive skylines, cross-filter of the worse half by the better half.
///
/// All three are exact and agree with the quadratic oracle in
/// skyline/skyline_compute.h; they exist so that (a) downstream users get a
/// serviceable skyline operator, (b) differential tests have independent
/// implementations to cross-check, and (c) the CLI `query` subcommand has an
/// efficient evaluator for ad-hoc contexts.
enum class QueryAlgorithm {
  kAuto,              ///< planner picks by context size
  kBlockNestedLoops,  ///< window algorithm, no preprocessing
  kSortFilter,        ///< presort by monotone score, filter
  kDivideConquer,     ///< median split + cross-filtering
};

/// Returns the canonical lowercase name ("bnl", "sfs", "dnc", "auto").
const char* QueryAlgorithmName(QueryAlgorithm a);

/// Parses a name accepted by QueryAlgorithmName; returns kAuto for unknown
/// strings (callers that must reject bad input validate beforehand).
QueryAlgorithm ParseQueryAlgorithm(const std::string& name);

/// The kAuto planner's size threshold: contexts of at most this many
/// candidates run BNL (the window fits in cache and presorting only adds
/// constant factors); larger contexts run SFS. Also the recursion base size
/// for divide-and-conquer.
inline constexpr size_t kAutoSmallContext = 64;

/// The BNL window for *narrow* subspaces (see the three-arg ResolveAuto).
/// Calibrated against the index-routed C-CSC engine: its candidate sets
/// arrive pre-pruned by the subspace index, so by the time a query runs,
/// moderate-size candidate lists behave like the small contexts the old
/// threshold assumed — and on one or two measures the SFS presort is pure
/// overhead because the BNL window stays tiny (a narrow subspace has few
/// incomparable tuples).
inline constexpr size_t kAutoNarrowContext = 256;

/// Subspaces with at most this many measures take the wider BNL window.
inline constexpr int kAutoNarrowMeasures = 2;

/// Resolves kAuto to a concrete algorithm for a context of `context_size`
/// candidates; non-auto inputs pass through unchanged. Exposed so tests can
/// pin the planner's threshold behavior (a silent flip would invalidate
/// every kAuto benchmark).
QueryAlgorithm ResolveAuto(QueryAlgorithm algo, size_t context_size);

/// Subspace-aware resolution: narrow subspaces (|m| <=
/// kAutoNarrowMeasures) stay on BNL up to kAutoNarrowContext candidates;
/// everything else follows the two-arg rule. This is the planner profile
/// for the post-rebuild C-CSC cost model, where index-pruned candidate
/// sets replaced the physical per-subspace scans the old threshold was
/// tuned against. Pinned by query_test.
QueryAlgorithm ResolveAuto(QueryAlgorithm algo, size_t context_size,
                           MeasureMask m);

/// Work counters for one evaluation (reset per query).
struct QueryStats {
  uint64_t context_size = 0;  ///< |σ_C(R)| scanned into the candidate set
  uint64_t comparisons = 0;   ///< pairwise dominance tests
  uint64_t recursive_calls = 0;  ///< divide-and-conquer partitions
};

/// Result of one contextual skyline query.
struct SkylineQueryResult {
  std::vector<TupleId> skyline;  ///< ascending TupleId order
  QueryStats stats;
};

/// Evaluates contextual skyline queries against a live Relation. Stateless
/// between queries apart from the relation pointer; cheap to construct.
class SkylineQueryEngine {
 public:
  /// `relation` must outlive the engine.
  explicit SkylineQueryEngine(const Relation* relation);

  /// λ_M(σ_C(R)) over all live (non-deleted) tuples.
  SkylineQueryResult Evaluate(const Constraint& c, MeasureMask m,
                              QueryAlgorithm algo = QueryAlgorithm::kAuto)
      const;

  /// λ_M over an explicit candidate set (already context-filtered). The
  /// candidate list may be in any order; output is ascending.
  SkylineQueryResult EvaluateCandidates(std::vector<TupleId> candidates,
                                        MeasureMask m,
                                        QueryAlgorithm algo) const;

  /// k-skyband of the candidates: tuples dominated by fewer than `k` others
  /// in subspace `m` (k=1 is the skyline). Quadratic counting; used by the
  /// one-of-the-few extension and by tests as a dominator-count oracle.
  std::vector<TupleId> KSkyband(const std::vector<TupleId>& candidates,
                                MeasureMask m, int k) const;

  /// Number of candidates that dominate `t` in `m` (`t` itself skipped).
  uint64_t CountDominators(TupleId t, const std::vector<TupleId>& candidates,
                           MeasureMask m) const;

  /// "One of the τ" (Wu et al., KDD'12): the largest k whose k-skyband has
  /// at most `tau` members, with that band. k starts at 1 (the skyline); if
  /// even the skyline exceeds `tau` members, k = 0 and the band is empty.
  struct OneOfTheFewResult {
    int k = 0;
    std::vector<TupleId> band;
  };
  OneOfTheFewResult OneOfTheFew(const std::vector<TupleId>& candidates,
                                MeasureMask m, int tau) const;

 private:
  std::vector<TupleId> BlockNestedLoops(std::vector<TupleId> candidates,
                                        MeasureMask m, QueryStats* stats)
      const;
  std::vector<TupleId> SortFilter(std::vector<TupleId> candidates,
                                  MeasureMask m, QueryStats* stats) const;
  std::vector<TupleId> DivideConquer(std::vector<TupleId> candidates,
                                     MeasureMask m, QueryStats* stats) const;

  /// Recursive worker for DivideConquer; `axes` rotates the split measure.
  std::vector<TupleId> DncRec(std::vector<TupleId> candidates, MeasureMask m,
                              int depth, QueryStats* stats) const;

  const Relation* relation_;
};

}  // namespace sitfact

#endif  // SITFACT_QUERY_SKYLINE_QUERY_H_
