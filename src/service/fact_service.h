#ifndef SITFACT_SERVICE_FACT_SERVICE_H_
#define SITFACT_SERVICE_FACT_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "persist/durable_engine.h"
#include "query/fact_index.h"
#include "relation/relation.h"

namespace sitfact {

/// Query-serving facade over a FactIndex: the read path of the system. The
/// discovery engines answer "what is new about THIS arrival"; FactService
/// answers the newsroom's standing questions — "what is prominent about
/// LeBron right now", "what happened in the last 500 box scores" — from any
/// number of reader threads while the single-writer engine keeps ingesting.
///
/// Threading contract (inherited from FactIndex): one writer thread calls
/// OnArrival/OnRemove/OnUpdate — the thread that owns the engine, which is
/// FactFeed's worker when the feed drives ingestion
/// (FactFeed::Options::fact_service wires the two together). Acquire() and
/// every query run from any thread against an immutable epoch snapshot; a
/// reader is never blocked by ingestion and never observes a torn epoch.
/// See docs/query_api.md for the full API and pagination contract.
class FactService {
 public:
  struct Options {
    /// Publish a fresh epoch every N mutations (1 = after every op).
    uint64_t publish_every = 1;
    /// Pre-render narrations at apply time so Explain() is snapshot-safe.
    bool store_narrations = true;
    /// Dimension naming the acting entity for narrations (e.g. "player");
    /// empty picks no subject.
    std::string entity;
  };

  /// `relation` must outlive the service; it is read only from the writer
  /// thread.
  FactService(const Relation* relation, Options options);
  explicit FactService(const Relation* relation)
      : FactService(relation, Options()) {}

  FactService(const FactService&) = delete;
  FactService& operator=(const FactService&) = delete;

  // --- ingest side (single writer thread) ---

  /// Folds one arrival into the index. Call for EVERY arrival (not just
  /// prominent ones) so arrival windows stay dense.
  void OnArrival(const ArrivalReport& report);

  /// Mirrors DiscoveryEngine::Remove — call after the engine accepted it.
  Status OnRemove(TupleId t);

  /// Mirrors Update (remove + re-append); `readded` is the report the
  /// engine returned for the replacement row.
  Status OnUpdate(TupleId removed_tuple, const ArrivalReport& readded);

  /// Force-publishes the current epoch (e.g. after a burst ingested with a
  /// large publish_every).
  void Flush();

  // --- read side ---

  /// A fact copied out of a snapshot: self-contained, safe to hold after
  /// the snapshot is gone.
  struct FactView {
    uint32_t id = 0;  ///< record id within the snapshot (pagination key)
    TupleId tuple = 0;
    uint64_t arrival_seq = 0;
    SkylineFact fact;
    uint64_t context_size = 0;
    uint64_t skyline_size = 0;
    double prominence = 0.0;
    bool prominent = false;
    bool ranked = false;
    bool live = true;
    std::string narration;  ///< empty when narration storage is off
  };

  /// One page of query results plus the epoch it was served from.
  struct Page {
    uint64_t epoch = 0;
    std::vector<FactView> facts;
    /// Present when more matches may exist; feed back into TopK to resume.
    std::optional<TopKCursor> next;
  };

  /// A pinned epoch. Queries against one Snapshot object are mutually
  /// consistent (same facts, same order); keeping it alive keeps the epoch
  /// alive. Copyable and cheap (one shared_ptr).
  class Snapshot {
   public:
    uint64_t epoch() const { return state_->epoch(); }
    uint64_t arrivals() const { return state_->arrivals(); }
    size_t fact_count() const { return state_->fact_count(); }

    /// Top-k facts by at-arrival prominence (desc, ties by record id asc).
    Page TopK(size_t k, const FactFilter& filter = {},
              const std::optional<TopKCursor>& cursor = std::nullopt) const;

    /// Facts minted at tuple `t`'s arrival, as one cursor-paginated Page —
    /// the same contract TopK has, over record-id-ascending order (report
    /// order). The cursor names the last record already returned; the next
    /// page starts strictly after it (only `record_id` orders these scans;
    /// `prominence` is carried for symmetry with TopK cursors).
    Page FactsForTuple(TupleId t, const FactFilter& filter, size_t k,
                       const std::optional<TopKCursor>& cursor =
                           std::nullopt) const;

    /// Facts minted by arrivals in the inclusive window, as one
    /// cursor-paginated Page (record-id ascending; same cursor contract as
    /// FactsForTuple).
    Page FactsInWindow(uint64_t first_arrival, uint64_t last_arrival,
                       const FactFilter& filter, size_t k,
                       const std::optional<TopKCursor>& cursor =
                           std::nullopt) const;

    /// "Facts about" convenience: TopK among facts whose constraint binds at
    /// least `about`'s attribute=value pairs.
    Page About(const Constraint& about, size_t k) const;

    /// The view of one record by id (the pagination key every Page hands
    /// out), or nullopt when the id does not exist at this epoch. O(1).
    std::optional<FactView> Fact(uint32_t id) const;

    /// News-style sentence for a fact (the stored narration when available,
    /// a numeric summary otherwise). Never touches the live Relation.
    std::string Explain(const FactView& view) const;

    /// Maintenance counters of the retired TopK-sorted serving lists. The
    /// index keeps its lists in record-id order, so both are always zero;
    /// the repo benchmark (perfbench/) is the only reader left.
    struct SkybandStats {
      uint64_t band_inserts = 0;
      uint64_t shifted_records = 0;
    };
    SkybandStats skyband_stats() const { return {}; }

   private:
    friend class FactService;
    explicit Snapshot(std::shared_ptr<const FactIndexSnapshot> state)
        : state_(std::move(state)) {}
    FactView View(uint32_t id) const;

    std::shared_ptr<const FactIndexSnapshot> state_;
  };

  /// Pins the current epoch. Any thread, never blocks on ingestion.
  Snapshot Acquire() const { return Snapshot(index_.Acquire()); }

  /// One-shot convenience (acquire + query).
  Page TopK(size_t k, const FactFilter& filter = {},
            const std::optional<TopKCursor>& cursor = std::nullopt) const {
    return Acquire().TopK(k, filter, cursor);
  }

  const FactIndex& index() const { return index_; }

  // --- recovery wiring ---

  /// Rebuilds a service from an already-populated relation by re-running
  /// discovery over the live tuples in arrival order with a fresh SBottomUp
  /// state (the same soundness argument as snapshot replay rebuilds:
  /// Discover(t) consults only tuples before t, and skipping tombstones
  /// reproduces the post-Remove state). The rebuilt index treats removed
  /// tuples as never having arrived — identical to how a restored engine
  /// itself behaves.
  static StatusOr<std::unique_ptr<FactService>> Rebuild(
      const Relation* relation, const DiscoveryOptions& discovery, double tau,
      Options options);
  static StatusOr<std::unique_ptr<FactService>> Rebuild(
      const Relation* relation, const DiscoveryOptions& discovery,
      double tau) {
    return Rebuild(relation, discovery, tau, Options());
  }

  /// Rebuild for a recovered durable store: pulls the relation, truncation
  /// knobs and τ from the store's backend so a crashed+restarted process
  /// can serve queries immediately after DurableEngine::Open().
  static StatusOr<std::unique_ptr<FactService>> FromDurable(
      persist::DurableEngine* durable, Options options);
  static StatusOr<std::unique_ptr<FactService>> FromDurable(
      persist::DurableEngine* durable) {
    return FromDurable(durable, Options());
  }

 private:
  static FactIndex::Options IndexOptions(const Relation* relation,
                                         const Options& options);

  FactIndex index_;
};

}  // namespace sitfact

#endif  // SITFACT_SERVICE_FACT_SERVICE_H_
