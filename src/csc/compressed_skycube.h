#ifndef SITFACT_CSC_COMPRESSED_SKYCUBE_H_
#define SITFACT_CSC_COMPRESSED_SKYCUBE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "lattice/subspace_universe.h"
#include "relation/relation.h"
#include "skyline/subspace_index.h"

namespace sitfact {

/// Compressed SkyCube of Xia & Zhang (SIGMOD'06), built from scratch: for
/// one fixed set of tuples (here: one context σ_C(R)) it stores every tuple
/// in its *minimum subspaces* — the measure subspaces where the tuple is a
/// skyline tuple but is not in the skyline of any proper subspace.
///
/// Key property (their Theorem 1, reproved in DESIGN.md): the skyline of any
/// subspace M is contained in ∪_{N ⊆ M} CSC[N], so both membership queries
/// and incremental maintenance can restrict attention to stored tuples.
///
/// The subspace lattice is truncated to the experiment's SubspaceUniverse
/// (all |M| <= m̂); truncation preserves the property because it is closed
/// under subsets.
class CompressedSkycube {
 public:
  /// Every membership decision (promotion, demotion repair, queries) is
  /// routed through `index`, a per-context SubspaceIndex over exactly this
  /// cube's context members: the owner inserts each tuple into the index
  /// before Insert()ing it here. `universe` and `index` must outlive the
  /// cube.
  CompressedSkycube(const SubspaceUniverse* universe,
                    const SubspaceIndex* index);

  /// Folds tuple `t` (a member of this cube's context) into the structure:
  ///   1. decides, for every admissible subspace, whether t enters the
  ///      skyline (appending those subspace masks to *skyline_subspaces);
  ///   2. stores t at its minimum subspaces;
  ///   3. demotes stored tuples that t now dominates, re-deriving their
  ///      minimum subspaces.
  /// Adds the number of tuple-pair comparisons performed to *comparisons.
  ///
  /// `arrival_memo` (bound to `t`) supplies the arrival's memoized
  /// partitions for promotion and demotion detection, and `repair_memo` is
  /// rebound to each demoted tuple for its two-phase recompute; either may
  /// be null (probes then fall back to batched partitions).
  void Insert(const Relation& r, TupleId t,
              std::vector<MeasureMask>* skyline_subspaces,
              uint64_t* comparisons, PartitionMemo* arrival_memo = nullptr,
              PartitionMemo* repair_memo = nullptr);

  /// The CSC query algorithm: skyline of subspace `m`, ascending by id,
  /// probed from the tuples stored at subspaces of `m`.
  std::vector<TupleId> QuerySkyline(MeasureMask m,
                                    uint64_t* comparisons) const;

  /// Stored tuple occurrences (a tuple stored in k minimum subspaces counts
  /// k times), mirroring the paper's Fig. 10b accounting.
  uint64_t stored_count() const { return stored_count_; }

  size_t ApproxMemoryBytes() const;

  /// Bucket of subspace `m` (tests/inspection).
  const std::vector<TupleId>* bucket(MeasureMask m) const;

 private:
  struct Entry {
    MeasureMask mask;
    std::vector<TupleId> tuples;
  };

  int FindEntry(MeasureMask m) const;
  std::vector<TupleId>* GetBucket(MeasureMask m, bool create);
  void EraseEverywhere(TupleId t);

  /// Stores `t` at the minimal masks of its skyline set.
  void StoreAtMinimalSubspaces(TupleId t,
                               const std::vector<uint8_t>& skyline_set);

  const SubspaceUniverse* universe_;
  const SubspaceIndex* index_;
  std::vector<Entry> entries_;  // sorted by mask
  uint64_t stored_count_ = 0;
  // Scratch reused across Insert calls.
  std::vector<TupleId> demote_scratch_;
  std::vector<uint8_t> sky_scratch_;
};

}  // namespace sitfact

#endif  // SITFACT_CSC_COMPRESSED_SKYCUBE_H_
