#ifndef SITFACT_SKYLINE_SKYBAND_INDEX_H_
#define SITFACT_SKYLINE_SKYBAND_INDEX_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "lattice/constraint.h"
#include "relation/relation.h"
#include "storage/mu_store.h"

namespace sitfact {

/// Incremental per-(constraint, measure-subspace) skyband shadow of a µ
/// store — the paper's prominence denominator |λ_M(σ_C(R))| turned into a
/// lookup. Each non-empty µ bucket is mirrored as one *band*; bands of one
/// constraint form a *family*, exactly the Context grouping the store uses.
///
/// Two maintenance paths, per the BucketObserver contract:
///  * notifying stores (MemoryMuStore, SegmentedMuStore): the index
///    registers as the store's observer and folds every OnBucketChanged
///    into its bands — it is then `live()` and coherent with the store
///    after every mutation, including shard-parallel ones (one internal
///    mutex; the per-bucket copy is the price of O(1) size probes).
///  * non-notifying stores (the file-backed stores) and restored dumps:
///    Attach() primes the bands from ForEachBucket. The index is a frozen
///    snapshot, not live; consumers must fall back to store reads once the
///    store mutates again.
///
/// What it answers without touching the store:
///  * Invariant 1 (kAllSkylineConstraints): a band IS λ_M(σ_C(R)), so its
///    size is the prominence denominator.
///  * Invariant 2 (kMaximalSkylineConstraints): λ is the deduplicated union
///    of C's ancestor bands filtered by satisfaction of C — the same walk
///    ProminenceEvaluator::Evaluate does against the store.
///
/// No engine attaches one: ranking reads the store in one lattice pass per
/// arrival (core/prominence.h). The class stays only because the repo
/// benchmark (perfbench/) still names it, and goes with the next change to
/// that benchmark (ROADMAP item 3).
///
/// Threading: Attach/Detach and all probes belong to the engine's
/// writer thread; OnBucketChanged may arrive concurrently from shard pool
/// threads (SegmentedMuStore forwards to per-shard segments). Every method
/// takes the one internal mutex, and none calls out while holding it, so
/// the index is safe under the sharded engine's fork/join without ordering
/// assumptions beyond the store's own.
class SkybandIndex : public MuStore::BucketObserver {
 public:
  /// Maintenance and probe counters (monotonic except the three gauges).
  struct Stats {
    uint64_t notifications = 0;  ///< OnBucketChanged callbacks folded in
    uint64_t rebuilds = 0;       ///< ForEachBucket primes (one per Attach)
    uint64_t size_probes = 0;    ///< Invariant-1 SkylineSize answers
    uint64_t union_probes = 0;   ///< Invariant-2 union answers
    uint64_t families = 0;       ///< gauge: constraints with >= 1 band
    uint64_t bands = 0;          ///< gauge: non-empty (C, M) bands
    uint64_t members = 0;        ///< gauge: Σ band sizes
  };

  SkybandIndex() = default;
  ~SkybandIndex() override { Detach(); }

  SkybandIndex(const SkybandIndex&) = delete;
  SkybandIndex& operator=(const SkybandIndex&) = delete;

  /// Registers as `store`'s observer, records the invariant, and primes
  /// the bands from ForEachBucket so attaching to an already-populated
  /// store (a restored snapshot) starts coherent. live() afterwards iff the
  /// store notifies.
  void Attach(MuStore* store, StoragePolicy policy);

  /// Unregisters from the store and drops every band.
  void Detach();

  bool attached() const;
  /// True when the bands track every store mutation (notifying store).
  bool live() const;
  StoragePolicy policy() const { return policy_; }

  /// |λ_M(σ_C(R))| under Invariant 1: the band size, 0 when absent.
  uint64_t SkylineSize(const Constraint& c, MeasureMask m) const;

  /// |λ_M(σ_C(R))| under Invariant 2: deduplicated union of the bands of
  /// C's ancestors-or-self, filtered by satisfaction of C — byte-for-byte
  /// the set ProminenceEvaluator computes from the store.
  uint64_t UnionSkylineSize(const Relation& r, const Constraint& c,
                            MeasureMask m) const;

  Stats stats() const;
  size_t ApproxMemoryBytes() const;

  // MuStore::BucketObserver: replaces (or erases, when `bucket` is empty)
  // the band for (c, m). Any thread.
  void OnBucketChanged(const Constraint& c, MeasureMask m,
                       const std::vector<TupleId>& bucket) override;

 private:
  /// One mirrored bucket. Members stay in store order (a replace is then
  /// one vector assign).
  struct Band {
    MeasureMask mask = 0;
    std::vector<TupleId> members;
  };
  /// Bands of one constraint, sorted by mask (few subspaces per constraint,
  /// same reasoning as MemoryMuStore's flat entry vector).
  using Family = std::vector<Band>;

  /// Locked helpers. `mu_` must be held.
  const Band* FindBandLocked(const Constraint& c, MeasureMask m) const;
  void ApplyLocked(const Constraint& c, MeasureMask m,
                   const std::vector<TupleId>& bucket);
  void ClearLocked();

  mutable std::mutex mu_;
  MuStore* store_ = nullptr;
  StoragePolicy policy_ = StoragePolicy::kAllSkylineConstraints;
  bool live_ = false;
  std::unordered_map<Constraint, Family, ConstraintHash> families_;
  mutable Stats stats_;
  mutable std::vector<TupleId> union_scratch_;
};

}  // namespace sitfact

#endif  // SITFACT_SKYLINE_SKYBAND_INDEX_H_
