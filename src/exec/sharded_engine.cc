#include "exec/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "core/prominence.h"

namespace sitfact {

ShardedEngine::ShardedEngine(Relation* relation, const Config& config)
    : relation_(relation), config_(config) {
  SITFACT_CHECK(relation != nullptr);
  SITFACT_CHECK_MSG(config.num_shards >= 1, "num_shards must be >= 1");
  discoverer_ = std::make_unique<ShardedDiscoverer>(
      relation, config.options, config.num_shards, config.num_threads);
}

ArrivalReport ShardedEngine::Append(const Row& row) {
  relation_->Append(row);
  return DiscoverLast();
}

ArrivalReport ShardedEngine::DiscoverLast() {
  SITFACT_CHECK(relation_->size() > 0);
  TupleId t = relation_->size() - 1;
  discoverer_->StartArrival(t, config_.rank_facts, /*slot=*/0);
  discoverer_->WaitArrival();
  return MergeReport(t, /*slot=*/0);
}

std::vector<ArrivalReport> ShardedEngine::AppendBatch(
    std::span<const Row> rows) {
  std::vector<ArrivalReport> reports;
  if (rows.empty()) return reports;
  reports.reserve(rows.size());

  // Software pipeline: while the shards run arrival i+1, the caller merges
  // arrival i's outputs (slots alternate, so the buffers never collide).
  // Appends happen strictly between fork/join points, so every arrival sees
  // exactly the history the sequential engine would.
  TupleId t = relation_->Append(rows[0]);
  discoverer_->StartArrival(t, config_.rank_facts, /*slot=*/0);
  for (size_t i = 0; i < rows.size(); ++i) {
    discoverer_->WaitArrival();
    TupleId merged_tuple = t;
    int merged_slot = static_cast<int>(i % 2);
    if (i + 1 < rows.size()) {
      t = relation_->Append(rows[i + 1]);
      discoverer_->StartArrival(t, config_.rank_facts,
                                static_cast<int>((i + 1) % 2));
    }
    reports.push_back(MergeReport(merged_tuple, merged_slot));
  }
  return reports;
}

void ShardedEngine::SerializeState(BinaryWriter* w) {
  ShardedDiscoverer& disc = *discoverer_;
  DiscoveryEngine::WriteStateHeader(
      w, disc.name(), disc.max_bound_dims(),
      static_cast<int>(disc.subspaces().max_size()), config_.tau,
      config_.rank_facts, disc.storage_policy());
  w->WriteU64(disc.DistinctContexts());
  disc.ForEachContextCount([&](const Constraint& c, uint64_t count) {
    SerializeConstraint(w, c);
    w->WriteU64(count);
  });
  w->WriteU8(1);  // the sharded engine always keeps a µ store
  disc.mutable_store()->SerializeBuckets(w);
}

Status ShardedEngine::Remove(TupleId t) {
  if (t >= relation_->size()) {
    return Status::InvalidArgument("no such tuple");
  }
  if (relation_->IsDeleted(t)) {
    return Status::InvalidArgument("tuple already deleted");
  }
  relation_->MarkDeleted(t);
  // Per-shard counters are decremented inside the repair tasks.
  return discoverer_->Remove(t);
}

StatusOr<ArrivalReport> ShardedEngine::Update(TupleId t, const Row& row) {
  if (row.dimensions.size() !=
          static_cast<size_t>(relation_->schema().num_dimensions()) ||
      row.measures.size() !=
          static_cast<size_t>(relation_->schema().num_measures())) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  Status removed = Remove(t);
  if (!removed.ok()) return removed;
  return Append(row);
}

ArrivalReport ShardedEngine::MergeReport(TupleId t, int slot) {
  ArrivalReport report;
  report.tuple = t;
  for (int s = 0; s < discoverer_->num_shards(); ++s) {
    const ShardedDiscoverer::ShardOutput& out = discoverer_->output(s, slot);
    report.facts.insert(report.facts.end(), out.facts.begin(),
                        out.facts.end());
    report.ranked.insert(report.ranked.end(), out.ranked.begin(),
                         out.ranked.end());
  }
  CanonicalizeFacts(&report.facts);
  if (config_.rank_facts) {
    // Reproduce ProminenceEvaluator::RankAll's order exactly: canonical fact
    // order first, then a stable sort descending by prominence.
    std::sort(report.ranked.begin(), report.ranked.end(),
              [](const RankedFact& a, const RankedFact& b) {
                return a.fact < b.fact;
              });
    std::stable_sort(report.ranked.begin(), report.ranked.end(),
                     [](const RankedFact& a, const RankedFact& b) {
                       return a.prominence > b.prominence;
                     });
    report.prominent = SelectProminent(report.ranked, config_.tau);
  }
  return report;
}

}  // namespace sitfact
