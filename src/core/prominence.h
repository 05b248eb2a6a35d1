#ifndef SITFACT_CORE_PROMINENCE_H_
#define SITFACT_CORE_PROMINENCE_H_

#include <cstdint>
#include <vector>

#include "common/radix_sort.h"
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
  /// every fact binds the arriving tuple's values) and orders them
  /// descending by prominence, ties in canonical order (OrderRanked's
  /// rule). Numbers equal Evaluate's, fact for fact. Under Invariant 2 all
  /// ancestors lie in one lattice below an anchor constraint, so the pass
  /// resolves each lattice node once and counts each stored tuple once per
  /// fact through per-tuple slots kept across arrivals.
  std::vector<RankedFact> RankAll(const std::vector<SkylineFact>& facts);

  /// |λ_M(σ_C(R))| per the storage policy, by the per-fact store walk.
  uint64_t SkylineSize(const SkylineFact& fact);

  /// RankAll's order for the ranked facts of one arrival, ranked in parts
  /// (the sharded engine's shards): descending by prominence, ties in
  /// canonical order (ArrivalOrderKey). RankAll sorts through the same
  /// code, so the rule lives in one place.
  static void OrderRanked(std::vector<RankedFact>* ranked);

 private:
  /// One node of the arrival's lattice: a bound mask below the anchor and
  /// the store's context for anchor.Restrict(mask) (null when absent).
  struct Node {
    DimMask mask;
    MuStore::Context* ctx;
  };

  /// The facts of one subspace: positions [begin, end) of the group_*
  /// arrays.
  struct Group {
    MeasureMask subspace;
    uint32_t begin;
    uint32_t end;
  };

  /// Per stored tuple, reused across arrivals and told apart by epoch: the
  /// attributes on which the tuple agrees with this arrival's anchor (valid
  /// when agree_epoch is the arrival's), and the head of its chain in
  /// held_ of the nodes holding it in the current group (valid when
  /// group_epoch is the group's). A few bytes per stored tuple replace a
  /// sort of (tuple, node) pairs per group.
  struct TupleSlot {
    uint32_t agree_epoch = 0;
    DimMask agree = 0;
    uint32_t group_epoch = 0;
    uint32_t held = 0;
  };

  /// A node holding a tuple in the current group, linked to the tuple's
  /// previous such node (kNoHeld ends the chain).
  struct Held {
    DimMask mask;
    uint32_t next;
  };

  /// Per-fact numbers, in canonical position.
  struct Counts {
    uint64_t context_size = 0;
    uint64_t skyline_size = 0;
    double prominence = 0.0;
  };

  /// Buffers of SortRanked, kept across arrivals.
  struct RankOrder {
    /// Positions of facts, with their sort keys.
    std::vector<KeyedPosition> items;
    std::vector<KeyedPosition> buffer;
    /// The distinct prominence keys, each with its intern id.
    std::vector<KeyedPosition> distinct;
    /// Open-addressing table of 1 + intern id (0: empty slot).
    std::vector<uint32_t> table;
    /// Per item, its prominence's intern id.
    std::vector<uint32_t> ids;
    std::vector<uint32_t> starts;
  };

  /// Sorts order->items, positions of one arrival's facts in canonical
  /// order, stably by descending prominence: the ranked order.
  /// `prominence(i)` reads position i's prominence.
  template <typename ProminenceAt>
  static void SortRanked(ProminenceAt prominence, RankOrder* order);

  /// Invariant 2: fills in counts_[i].skyline_size for every fact in one
  /// pass over the lattice below `anchor`.
  void CountUnionSizes(const Constraint& anchor,
                       const std::vector<SkylineFact>& facts);

  const Relation* relation_;
  const ContextCounter* counter_;
  MuStore* store_;
  StoragePolicy policy_;
  std::vector<TupleId> scratch_;
  std::vector<TupleId> union_scratch_;
  // RankAll scratch, kept across arrivals.
  std::vector<ValueId> anchor_values_;
  std::vector<Counts> counts_;
  std::vector<Node> nodes_;
  /// Subspace mask -> 1 + its group's index in groups_ (0: none); all zero
  /// between arrivals.
  std::vector<uint32_t> group_of_;
  std::vector<Group> groups_;
  /// The facts grouped by subspace: each one's bound mask, its position
  /// in canonical order, and the stored tuples it counts so far.
  std::vector<DimMask> group_masks_;
  std::vector<uint32_t> group_facts_;
  std::vector<uint32_t> group_counts_;
  /// Per fact of the current group: some node holding the current tuple
  /// lies below it (0/1).
  std::vector<uint32_t> hit_;
  /// The current group's stored tuples, each once.
  std::vector<TupleId> uniques_;
  RankOrder rank_order_;
  std::vector<TupleSlot> slots_;
  std::vector<Held> held_;
  uint32_t epoch_ = 0;
};

/// The paper's "prominent facts pertinent to t": the facts attaining the
/// maximum prominence among S_t, provided that maximum is >= tau. (Ties make
/// several facts prominent at once.) `ranked` must be sorted descending.
std::vector<RankedFact> SelectProminent(const std::vector<RankedFact>& ranked,
                                        double tau);

}  // namespace sitfact

#endif  // SITFACT_CORE_PROMINENCE_H_
