#ifndef SITFACT_CORE_PROMINENCE_H_
#define SITFACT_CORE_PROMINENCE_H_

#include <utility>
#include <vector>

#include "core/fact.h"
#include "relation/relation.h"
#include "storage/context_counter.h"
#include "storage/mu_store.h"

namespace sitfact {

class SkybandIndex;

/// Prominence of a fact (Sec. VII): |σ_C(R)| / |λ_M(σ_C(R))| — how rare it
/// is to be undominated in this context. Context cardinalities come from the
/// ContextCounter; skyline cardinalities are read from a µ store under
/// either storage policy:
///   * Invariant 1 stores make it a bucket-size lookup;
///   * Invariant 2 stores require unioning the buckets of C's ancestors
///     (tuples stored at incomparable maximal constraints can repeat, so the
///     union deduplicates) and filtering for satisfaction of C.
///
/// One evaluator may rank any number of arrivals; it keeps its scratch
/// buffers between them.
class ProminenceEvaluator {
 public:
  ProminenceEvaluator(const Relation* relation, const ContextCounter* counter,
                      MuStore* store, StoragePolicy policy);

  /// No-op. Ranking always reads the µ store; this method survives only
  /// because the repo benchmark (perfbench/) still calls it, and goes with
  /// the next change to that benchmark (ROADMAP item 3).
  void set_skyband(const SkybandIndex* index) { (void)index; }

  /// Ranks one fact of the latest arrival (the arrival must already be
  /// folded into the store and the counter) by walking C's ancestors in the
  /// store — the per-fact reference RankAll is tested against.
  RankedFact Evaluate(const SkylineFact& fact);

  /// Ranks the canonical facts of one arrival (CanonicalizeFacts order;
  /// every fact binds the arriving tuple's values) and sorts them
  /// descending by prominence, stable w.r.t. canonical order on ties.
  /// Numbers equal Evaluate's, fact for fact. Under Invariant 2 all
  /// ancestors lie in one lattice below an anchor constraint, so the pass
  /// resolves each lattice node once and reads each (node, M) bucket once.
  std::vector<RankedFact> RankAll(const std::vector<SkylineFact>& facts);

  /// |λ_M(σ_C(R))| per the storage policy, by the per-fact store walk.
  uint64_t SkylineSize(const SkylineFact& fact);

 private:
  /// One node of the arrival's lattice: a bound mask below the anchor and
  /// the store's context for anchor.Restrict(mask) (null when absent).
  struct Node {
    DimMask mask;
    MuStore::Context* ctx;
  };

  /// One fact to count, keyed for grouping by subspace.
  struct GroupFact {
    MeasureMask subspace;
    DimMask mask;
    uint32_t index;
  };

  /// Invariant 2: fills in the skyline_size of every fact in one pass over
  /// the lattice below `anchor`.
  void CountUnionSizes(const Constraint& anchor,
                       std::vector<RankedFact>* ranked);

  const Relation* relation_;
  const ContextCounter* counter_;
  MuStore* store_;
  StoragePolicy policy_;
  std::vector<TupleId> scratch_;
  std::vector<TupleId> union_scratch_;
  // RankAll scratch, kept across arrivals.
  std::vector<ValueId> anchor_values_;
  std::vector<Node> nodes_;
  /// The facts, sorted by subspace.
  std::vector<GroupFact> grouped_;
  /// (tuple, stored node mask) pairs of one subspace's buckets.
  std::vector<std::pair<TupleId, DimMask>> members_;
};

/// The paper's "prominent facts pertinent to t": the facts attaining the
/// maximum prominence among S_t, provided that maximum is >= tau. (Ties make
/// several facts prominent at once.) `ranked` must be sorted descending.
std::vector<RankedFact> SelectProminent(const std::vector<RankedFact>& ranked,
                                        double tau);

}  // namespace sitfact

#endif  // SITFACT_CORE_PROMINENCE_H_
