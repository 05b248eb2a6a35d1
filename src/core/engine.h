#ifndef SITFACT_CORE_ENGINE_H_
#define SITFACT_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/discoverer.h"
#include "core/prominence.h"
#include "relation/relation.h"
// perfbench/ reads SkybandIndex::stats() through skyband_index().
#include "skyline/skyband_index.h"
#include "storage/context_counter.h"

namespace sitfact {

/// Everything the engine derives from one arrival.
struct ArrivalReport {
  TupleId tuple = 0;
  /// S_t, in canonical order (OrderArrivalFacts).
  std::vector<SkylineFact> facts;
  /// Facts with prominence, sorted descending (empty when ranking is off).
  std::vector<RankedFact> ranked;
  /// The paper's prominent facts: top prominence if >= tau (ties included).
  std::vector<RankedFact> prominent;
};

/// The end of every sequential arrival, shared by DiscoveryEngine::
/// DiscoverLast and FactService::Rebuild: puts report->facts in canonical
/// order (OrderArrivalFacts) and, when `evaluator` is non-null, ranks them
/// (RankAll) and selects the facts prominent at threshold `tau`.
void OrderAndRankArrival(ProminenceEvaluator* evaluator, double tau,
                         ArrivalReport* report);

/// Facade tying together the relation, a discovery algorithm, the context
/// counter and prominence ranking: feed rows, get narratable facts. This is
/// the API the examples use.
class DiscoveryEngine {
 public:
  struct Config {
    DiscoveryOptions options;
    /// Prominence threshold τ; facts below it are never "prominent".
    double tau = 0.0;
    /// Compute prominence for every fact (requires the algorithm to keep a
    /// µ store — true for BottomUp/TopDown families, false for baselines).
    bool rank_facts = true;
  };

  /// Factory for a discoverer by paper name: BruteForce, BaselineSeq,
  /// BaselineIdx, C-CSC, BottomUp, TopDown, SBottomUp, STopDown,
  /// FSBottomUp, FSTopDown. File-backed variants place bucket files under
  /// `file_store_dir` (required for them).
  static StatusOr<std::unique_ptr<Discoverer>> CreateDiscoverer(
      const std::string& name, const Relation* relation,
      const DiscoveryOptions& options, const std::string& file_store_dir = "");

  /// `relation` must outlive the engine.
  DiscoveryEngine(Relation* relation, std::unique_ptr<Discoverer> discoverer,
                  const Config& config);

  /// The ranking evaluator points at counter_, so the engine stays put.
  DiscoveryEngine(const DiscoveryEngine&) = delete;
  DiscoveryEngine& operator=(const DiscoveryEngine&) = delete;

  /// Appends `row` and discovers its facts.
  ArrivalReport Append(const Row& row);

  /// Runs discovery for a tuple already appended to the relation (it must be
  /// the most recent one).
  ArrivalReport DiscoverLast();

  /// Deletion extension (the paper's future work): tombstones `t`, fixes the
  /// context cardinalities, and repairs the algorithm's state. Fails without
  /// side effects when the algorithm lacks removal support or `t` is not a
  /// live tuple.
  Status Remove(TupleId t);

  /// Update extension (the other half of the paper's "deletion and update"
  /// future work): logically replaces live tuple `t` with `row`. In the
  /// append-only model an update is a remove + re-append, so the corrected
  /// row receives a fresh TupleId (returned inside the report) and is
  /// re-evaluated as the newest arrival — matching the journalism use case
  /// of correcting an erroneous stat line after publication. Fails without
  /// side effects under the same conditions as Remove.
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row);

  Relation& relation() { return *relation_; }
  Discoverer& discoverer() { return *discoverer_; }

  /// Always null: ranking reads the µ store directly (ProminenceEvaluator).
  /// Kept only because the repo benchmark (perfbench/) still calls it; it
  /// goes with the next change to that benchmark (ROADMAP item 3).
  const SkybandIndex* skyband_index() const { return nullptr; }

  const ContextCounter& counter() const { return counter_; }
  /// Snapshot restore needs to repopulate the counter in place.
  ContextCounter& mutable_counter() { return counter_; }
  const Config& config() const { return config_; }

  /// Checkpoint hook: writes the engine-state section of a snapshot —
  /// algorithm name, resolved truncation knobs, prominence config, the
  /// context counter, and the µ-store bucket dump. io/snapshot.cc frames it
  /// into a full snapshot file; persist/ reuses the same section for
  /// checkpoints (see docs/persistence.md for the byte layout).
  void SerializeState(BinaryWriter* w);

  /// Shared framing of the section's fixed-field prefix. Both engine kinds
  /// (here and ShardedEngine::SerializeState) MUST write it through this
  /// one function — the loaders parse it positionally and snapshots restore
  /// across engine kinds, so two independent writer copies would be a
  /// format fork waiting to happen.
  static void WriteStateHeader(BinaryWriter* w, std::string_view name,
                               int max_bound_dims, int max_measure_dims,
                               double tau, bool rank_facts,
                               StoragePolicy policy);

 private:
  Relation* relation_;
  std::unique_ptr<Discoverer> discoverer_;
  Config config_;
  ContextCounter counter_;
  /// Present iff config_.rank_facts; reused across arrivals.
  std::optional<ProminenceEvaluator> evaluator_;
};

}  // namespace sitfact

#endif  // SITFACT_CORE_ENGINE_H_
