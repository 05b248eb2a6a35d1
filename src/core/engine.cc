#include "core/engine.h"

#include <utility>

#include "common/binary_io.h"
#include "common/logging.h"
#include "core/baseline_idx.h"
#include "core/baseline_seq.h"
#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/shared_bottom_up.h"
#include "core/shared_top_down.h"
#include "core/top_down.h"
#include "csc/ccsc_discoverer.h"
#include "storage/file_mu_store.h"
#include "storage/memory_mu_store.h"

namespace sitfact {

namespace {

/// FSBottomUp / FSTopDown are the sharing algorithms over a file-backed
/// store; give them their paper names.
class FileSharedBottomUp : public SharedBottomUpDiscoverer {
 public:
  FileSharedBottomUp(const Relation* r, const DiscoveryOptions& o,
                     std::unique_ptr<MuStore> s)
      : SharedBottomUpDiscoverer(r, o, std::move(s)) {
    set_name("FSBottomUp");
  }
};

class FileSharedTopDown : public SharedTopDownDiscoverer {
 public:
  FileSharedTopDown(const Relation* r, const DiscoveryOptions& o,
                    std::unique_ptr<MuStore> s)
      : SharedTopDownDiscoverer(r, o, std::move(s)) {
    set_name("FSTopDown");
  }
};

}  // namespace

StatusOr<std::unique_ptr<Discoverer>> DiscoveryEngine::CreateDiscoverer(
    const std::string& name, const Relation* relation,
    const DiscoveryOptions& options, const std::string& file_store_dir) {
  if (name == "BruteForce") {
    return std::unique_ptr<Discoverer>(
        new BruteForceDiscoverer(relation, options));
  }
  if (name == "BaselineSeq") {
    return std::unique_ptr<Discoverer>(
        new BaselineSeqDiscoverer(relation, options));
  }
  if (name == "BaselineIdx") {
    return std::unique_ptr<Discoverer>(
        new BaselineIdxDiscoverer(relation, options));
  }
  if (name == "C-CSC") {
    return std::unique_ptr<Discoverer>(new CcscDiscoverer(relation, options));
  }
  if (name == "BottomUp") {
    return std::unique_ptr<Discoverer>(
        new BottomUpDiscoverer(relation, options));
  }
  if (name == "TopDown") {
    return std::unique_ptr<Discoverer>(
        new TopDownDiscoverer(relation, options));
  }
  if (name == "SBottomUp") {
    return std::unique_ptr<Discoverer>(
        new SharedBottomUpDiscoverer(relation, options));
  }
  if (name == "STopDown") {
    return std::unique_ptr<Discoverer>(
        new SharedTopDownDiscoverer(relation, options));
  }
  if (name == "FSBottomUp" || name == "FSTopDown") {
    if (file_store_dir.empty()) {
      return Status::InvalidArgument(name +
                                     " requires a file_store_dir");
    }
    auto store = std::make_unique<FileMuStore>(file_store_dir);
    if (name == "FSBottomUp") {
      return std::unique_ptr<Discoverer>(
          new FileSharedBottomUp(relation, options, std::move(store)));
    }
    return std::unique_ptr<Discoverer>(
        new FileSharedTopDown(relation, options, std::move(store)));
  }
  return Status::NotFound("unknown discoverer: " + name);
}

DiscoveryEngine::DiscoveryEngine(Relation* relation,
                                 std::unique_ptr<Discoverer> discoverer,
                                 const Config& config)
    : relation_(relation),
      discoverer_(std::move(discoverer)),
      config_(config),
      counter_(discoverer_->max_bound_dims()) {
  if (config_.rank_facts) {
    SITFACT_CHECK_MSG(discoverer_->store() != nullptr,
                      "prominence ranking needs a µ-store algorithm");
    evaluator_.emplace(relation_, &counter_, discoverer_->mutable_store(),
                       discoverer_->storage_policy());
  }
}

ArrivalReport DiscoveryEngine::Append(const Row& row) {
  relation_->Append(row);
  return DiscoverLast();
}

Status DiscoveryEngine::Remove(TupleId t) {
  if (!discoverer_->SupportsRemoval()) {
    return Status::Unimplemented(std::string(discoverer_->name()) +
                                 " does not support deletion");
  }
  if (t >= relation_->size()) {
    return Status::InvalidArgument("no such tuple");
  }
  if (relation_->IsDeleted(t)) {
    return Status::InvalidArgument("tuple already deleted");
  }
  relation_->MarkDeleted(t);
  counter_.OnRemoval(*relation_, t);
  return discoverer_->Remove(t);
}

StatusOr<ArrivalReport> DiscoveryEngine::Update(TupleId t, const Row& row) {
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

void DiscoveryEngine::WriteStateHeader(BinaryWriter* w, std::string_view name,
                                       int max_bound_dims,
                                       int max_measure_dims, double tau,
                                       bool rank_facts, StoragePolicy policy) {
  w->WriteString(std::string(name));
  w->WriteU32(static_cast<uint32_t>(max_bound_dims));
  w->WriteU32(static_cast<uint32_t>(max_measure_dims));
  w->WriteF64(tau);
  w->WriteU8(rank_facts ? 1 : 0);
  w->WriteU8(static_cast<uint8_t>(policy));
}

void DiscoveryEngine::SerializeState(BinaryWriter* w) {
  Discoverer& disc = *discoverer_;
  WriteStateHeader(w, disc.name(), disc.max_bound_dims(),
                   static_cast<int>(disc.subspaces().max_size()), config_.tau,
                   config_.rank_facts, disc.storage_policy());
  counter_.Serialize(w);
  MuStore* store = disc.mutable_store();
  w->WriteU8(store != nullptr ? 1 : 0);
  if (store != nullptr) store->SerializeBuckets(w);
}

ArrivalReport DiscoveryEngine::DiscoverLast() {
  SITFACT_CHECK(relation_->size() > 0);
  TupleId t = relation_->size() - 1;
  ArrivalReport report;
  report.tuple = t;
  counter_.OnArrival(*relation_, t);
  discoverer_->Discover(t, &report.facts);
  CanonicalizeFacts(&report.facts);
  if (evaluator_.has_value()) {
    report.ranked = evaluator_->RankAll(report.facts);
    report.prominent = SelectProminent(report.ranked, config_.tau);
  }
  return report;
}

}  // namespace sitfact
