#ifndef SITFACT_CSC_CCSC_DISCOVERER_H_
#define SITFACT_CSC_CCSC_DISCOVERER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/discoverer.h"
#include "csc/compressed_skycube.h"
#include "lattice/constraint.h"
#include "skyline/subspace_index.h"

namespace sitfact {

/// C-CSC: the paper's adaptation of the Compressed SkyCube to situational-
/// fact discovery (Sec. II / Sec. VI). One CSC is maintained per context
/// ever instantiated; a new tuple updates the CSC of every constraint it
/// satisfies, and the update doubles as the membership test for every
/// measure subspace.
///
/// Rebuilt on the shared SubspaceIndex layer: each context pairs its cube
/// with a k-d index over the context members, promotion/demotion and the
/// membership read-off route through index-pruned candidate sets, and one
/// arrival-bound PartitionMemo is threaded through every context so a
/// (t, other) partition is computed once per arrival — not once per
/// subspace per context. The engine still cannot prune constraints (CSCs of
/// different contexts share no *storage*), yet in the committed fig07
/// trajectory it beats BottomUp and TopDown in most rows — the inverse of
/// the paper's Fig. 7, reported as a reproduction finding in the README.
///
/// Contract note: C-CSC's emitted facts are tuple-for-tuple identical to
/// the pre-index engine (pinned by the differential tests), but its
/// comparison counters reflect the index-pruned candidate sets — it is the
/// one engine exempt from the bit-identical-counter rule.
class CcscDiscoverer : public Discoverer {
 public:
  CcscDiscoverer(const Relation* relation, const DiscoveryOptions& options);
  ~CcscDiscoverer() override;

  std::string_view name() const override { return "C-CSC"; }
  void Discover(TupleId t, std::vector<SkylineFact>* facts) override;

  size_t ApproxMemoryBytes() const override;
  uint64_t StoredTupleCount() const override { return stored_total_; }

  /// The per-context compressed skycubes are private state that cannot be
  /// reconstructed from a relation snapshot without a full replay.
  bool SupportsSnapshotRestore() const override { return false; }

  /// Removal: every context containing `t` is rebuilt by replaying its
  /// remaining live members in arrival order. The final cube state is
  /// order-insensitive (minimum subspaces are a function of the member
  /// set), so this matches a from-scratch stream without `t` — a
  /// deliberately simple repair; C-CSC is a competitor, not a product path.
  bool SupportsRemoval() const override { return true; }
  Status Remove(TupleId t) override;

  /// The cube of one context (tests/inspection); nullptr if absent.
  const CompressedSkycube* cube(const Constraint& c) const;

 private:
  /// One context's member index + its cube. Held by unique_ptr so the
  /// cube's index pointer survives map rehashes; `index` is declared first
  /// so it is constructed before the cube that points at it.
  struct ContextState {
    ContextState(const Relation* r, const SubspaceUniverse* universe)
        : index(r), cube(universe, &index) {}
    SubspaceIndex index;
    CompressedSkycube cube;
  };

  /// Replays `members` (in order) into a fresh state; returns its
  /// stored_count.
  std::unique_ptr<ContextState> RebuildState(
      const std::vector<TupleId>& members);

  std::vector<DimMask> masks_;
  std::unordered_map<Constraint, std::unique_ptr<ContextState>,
                     ConstraintHash>
      states_;
  uint64_t stored_total_ = 0;
  PartitionMemo arrival_memo_;
  PartitionMemo repair_memo_;
  std::vector<MeasureMask> sky_masks_scratch_;
};

}  // namespace sitfact

#endif  // SITFACT_CSC_CCSC_DISCOVERER_H_
