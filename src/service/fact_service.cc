#include "service/fact_service.h"

#include <utility>

#include "common/logging.h"
#include "core/prominence.h"
#include "relation/schema.h"

namespace sitfact {

FactIndex::Options FactService::IndexOptions(const Relation* relation,
                                             const Options& options) {
  FactIndex::Options out;
  out.publish_every = options.publish_every;
  out.entity_dim = options.entity.empty()
                       ? -1
                       : relation->schema().DimensionIndex(options.entity);
  return out;
}

FactService::FactService(const Relation* relation, Options options)
    : index_(relation, IndexOptions(relation, options)) {}

void FactService::OnArrival(const ArrivalReport& report) {
  index_.ApplyArrival(report);
}

Status FactService::OnRemove(TupleId t) { return index_.ApplyRemove(t); }

Status FactService::OnUpdate(TupleId removed_tuple,
                             const ArrivalReport& readded) {
  return index_.ApplyUpdate(removed_tuple, readded);
}

void FactService::Flush() { index_.Publish(); }

FactService::FactView FactService::Snapshot::View(uint32_t id) const {
  const FactRecord rec = state_->record(id);
  FactView view;
  view.id = id;
  view.tuple = rec.tuple;
  view.arrival_seq = rec.arrival_seq;
  view.fact = state_->fact(rec);
  view.context_size = rec.context_size;
  view.skyline_size = rec.skyline_size;
  view.prominence = rec.prominence;
  view.prominent = rec.prominent;
  view.ranked = rec.ranked;
  view.live = rec.live;
  view.narration = state_->narration(rec);
  return view;
}

FactService::Page FactService::Snapshot::TopK(
    size_t k, const FactFilter& filter,
    const std::optional<TopKCursor>& cursor) const {
  TopKResult result = state_->TopK(k, filter, cursor);
  Page page;
  page.epoch = state_->epoch();
  page.facts.reserve(result.record_ids.size());
  for (uint32_t id : result.record_ids) page.facts.push_back(View(id));
  page.next = result.next;
  return page;
}

FactService::Page FactService::Snapshot::FactsForTuple(
    TupleId t, const FactFilter& filter, size_t k,
    const std::optional<TopKCursor>& cursor) const {
  TopKResult result = state_->FactsForTuple(t, filter, k, cursor);
  Page page;
  page.epoch = state_->epoch();
  page.facts.reserve(result.record_ids.size());
  for (uint32_t id : result.record_ids) page.facts.push_back(View(id));
  page.next = result.next;
  return page;
}

FactService::Page FactService::Snapshot::FactsInWindow(
    uint64_t first_arrival, uint64_t last_arrival, const FactFilter& filter,
    size_t k, const std::optional<TopKCursor>& cursor) const {
  TopKResult result =
      state_->FactsInWindow(first_arrival, last_arrival, filter, k, cursor);
  Page page;
  page.epoch = state_->epoch();
  page.facts.reserve(result.record_ids.size());
  for (uint32_t id : result.record_ids) page.facts.push_back(View(id));
  page.next = result.next;
  return page;
}

std::optional<FactService::FactView> FactService::Snapshot::Fact(
    uint32_t id) const {
  if (id >= state_->fact_count()) return std::nullopt;
  return View(id);
}

FactService::Page FactService::Snapshot::About(const Constraint& about,
                                               size_t k) const {
  FactFilter filter;
  filter.about = about;
  return TopK(k, filter);
}

StatusOr<std::unique_ptr<FactService>> FactService::Rebuild(
    const Relation* relation, const DiscoveryOptions& discovery, double tau,
    Options options) {
  auto disc_or =
      DiscoveryEngine::CreateDiscoverer("SBottomUp", relation, discovery);
  if (!disc_or.ok()) return disc_or.status();
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();

  auto service = std::make_unique<FactService>(relation, options);
  ContextCounter counter(disc->max_bound_dims());
  ProminenceEvaluator evaluator(relation, &counter, disc->mutable_store(),
                                disc->storage_policy());
  ArrivalReport report;
  for (TupleId t = 0; t < relation->size(); ++t) {
    if (relation->IsDeleted(t)) continue;
    report.tuple = t;
    report.facts.clear();
    counter.OnArrival(*relation, t);
    disc->Discover(t, &report.facts);
    OrderAndRankArrival(&evaluator, tau, &report);
    service->OnArrival(report);
  }
  service->Flush();
  return service;
}

StatusOr<std::unique_ptr<FactService>> FactService::FromDurable(
    persist::DurableEngine* durable, Options options) {
  SITFACT_CHECK(durable != nullptr);
  DiscoveryOptions discovery;
  double tau = 0.0;
  if (durable->sharded()) {
    const ShardedEngine::Config& config = durable->sharded_engine()->config();
    discovery = config.options;
    tau = config.tau;
  } else {
    const DiscoveryEngine::Config& config = durable->engine()->config();
    discovery = config.options;
    tau = config.tau;
  }
  return Rebuild(&durable->relation(), discovery, tau, std::move(options));
}

}  // namespace sitfact
