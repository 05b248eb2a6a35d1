#ifndef SITFACT_EXEC_SHARDED_ENGINE_H_
#define SITFACT_EXEC_SHARDED_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "exec/sharded_discoverer.h"
#include "relation/relation.h"

namespace sitfact {

/// Thread-pool-backed counterpart of DiscoveryEngine: per-arrival discovery
/// and prominence ranking run shard-parallel over a lattice partition, and
/// the shard outputs are merged into an ArrivalReport that is tuple-for-tuple
/// identical to the sequential engine's (facts, prominence scores, prominent
/// selection — see docs/parallelism.md for the argument and
/// tests/sharded_equivalence_test.cc for the proof-by-differential).
///
/// Like every engine here it is single-writer: one thread calls
/// Append/AppendBatch/Remove/Update at a time; all parallelism is internal.
class ShardedEngine {
 public:
  struct Config {
    /// K: lattice partitions, each with a private µ-store segment. Clamped
    /// to the truncated lattice size and ShardedDiscoverer::kMaxShards.
    int num_shards = 4;
    /// Worker threads; 0 means num_shards. More shards than threads is fine
    /// (threads claim shards dynamically); the reverse leaves threads idle.
    int num_threads = 0;
    DiscoveryOptions options;
    /// Prominence threshold τ for the `prominent` selection.
    double tau = 0.0;
    /// Rank every fact (the sharded store always supports it).
    bool rank_facts = true;
  };

  /// `relation` must outlive the engine.
  ShardedEngine(Relation* relation, const Config& config);

  /// Appends `row` and discovers its facts (one fork/join).
  ArrivalReport Append(const Row& row);

  /// Streams `rows` through the engine, pipelining each arrival's
  /// append+discovery+ranking with the previous arrival's report merge.
  /// Equivalent to calling Append per row, just faster.
  std::vector<ArrivalReport> AppendBatch(std::span<const Row> rows);

  /// Discovery for the most recently appended tuple.
  ArrivalReport DiscoverLast();

  /// Deletion extension, matching DiscoveryEngine::Remove: tombstones `t`,
  /// then repairs counters and µ segments shard-parallel.
  Status Remove(TupleId t);

  /// Update extension, matching DiscoveryEngine::Update (remove+re-append).
  StatusOr<ArrivalReport> Update(TupleId t, const Row& row);

  Relation& relation() { return *relation_; }
  ShardedDiscoverer& discoverer() { return *discoverer_; }
  const DiscoveryStats& stats() const { return discoverer_->stats(); }
  const Config& config() const { return config_; }

  /// Aggregates over every µ-store segment.
  uint64_t StoredTupleCount() const { return discoverer_->StoredTupleCount(); }
  size_t ApproxMemoryBytes() const {
    return discoverer_->ApproxMemoryBytes();
  }

  /// Checkpoint hook mirroring DiscoveryEngine::SerializeState: the same
  /// engine-state section, with the aggregated counter view and the union of
  /// µ segments, under the algorithm name "Sharded". Because the segments
  /// follow Invariant 1, the dump is bucket-for-bucket the one a sequential
  /// Invariant-1 algorithm would write, so snapshots restore across engine
  /// kinds and shard counts (io/snapshot.h: LoadEngineSnapshot maps
  /// "Sharded" to SBottomUp; LoadShardedEngineSnapshot re-routes buckets and
  /// counts to any shard geometry).
  void SerializeState(BinaryWriter* w);

 private:
  /// Builds the canonical ArrivalReport for tuple `t` from the shard
  /// outputs parked in `slot`.
  ArrivalReport MergeReport(TupleId t, int slot);

  Relation* relation_;
  Config config_;
  std::unique_ptr<ShardedDiscoverer> discoverer_;
};

}  // namespace sitfact

#endif  // SITFACT_EXEC_SHARDED_ENGINE_H_
