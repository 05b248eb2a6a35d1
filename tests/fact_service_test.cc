// Tests for query/fact_index.h + service/fact_service.h: the CoW storage
// primitive, index maintenance from ArrivalReports, snapshot isolation,
// TopK ordering/pagination, filters, remove/update semantics, rebuild from
// a populated relation, recovery wiring, and the FactFeed Query() surface.

#include "service/fact_service.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/narrator.h"
#include "datagen/nba_generator.h"
#include "exec/sharded_engine.h"
#include "persist/durable_engine.h"
#include "query/fact_index.h"
#include "service/fact_feed.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

std::unique_ptr<DiscoveryEngine> MakeEngine(
    Relation* relation, double tau = 2.0, bool rank_facts = true,
    const std::string& algorithm = "STopDown") {
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, relation, {});
  EXPECT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = tau;
  config.rank_facts = rank_facts;
  return std::make_unique<DiscoveryEngine>(relation,
                                           std::move(disc_or).value(),
                                           config);
}

Dataset TestData(int n = 100, uint64_t seed = 11) {
  RandomDataConfig cfg;
  cfg.num_tuples = n;
  cfg.seed = seed;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  return RandomDataset(cfg);
}

/// Shadow model: the expected record list, mirroring the index's insertion
/// order (ranked order per arrival).
struct ModelRecord {
  TupleId tuple;
  uint64_t arrival_seq;
  SkylineFact fact;
  double prominence;
  bool prominent;
  bool live = true;
};

class Model {
 public:
  void OnArrival(const ArrivalReport& report) {
    uint64_t seq = arrivals_++;
    if (!report.ranked.empty()) {
      for (const RankedFact& rf : report.ranked) {
        bool prominent = false;
        for (const RankedFact& p : report.prominent) {
          if (p.fact == rf.fact) prominent = true;
        }
        records_.push_back(
            {report.tuple, seq, rf.fact, rf.prominence, prominent});
      }
    } else {
      for (const SkylineFact& f : report.facts) {
        records_.push_back({report.tuple, seq, f, 0.0, false});
      }
    }
  }

  void OnRemove(TupleId t) {
    for (ModelRecord& r : records_) {
      if (r.tuple == t) r.live = false;
    }
  }

  /// Expected TopK ids under `filter` (full list; callers slice).
  std::vector<uint32_t> TopKIds(const FactFilter& filter) const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < records_.size(); ++i) {
      if (Matches(filter, records_[i])) ids.push_back(i);
    }
    std::stable_sort(ids.begin(), ids.end(), [this](uint32_t a, uint32_t b) {
      if (records_[a].prominence != records_[b].prominence) {
        return records_[a].prominence > records_[b].prominence;
      }
      return a < b;
    });
    return ids;
  }

  size_t size() const { return records_.size(); }
  const ModelRecord& at(size_t i) const { return records_[i]; }

 private:
  /// The filter's contract, checked on the model's own full facts rather
  /// than through FactFilter::Matches, the code under test.
  static bool Matches(const FactFilter& f, const ModelRecord& r) {
    if (!f.include_dead && !r.live) return false;
    if (f.tuple.has_value() && r.tuple != *f.tuple) return false;
    if (f.bound_mask.has_value() &&
        r.fact.constraint.bound_mask() != *f.bound_mask) {
      return false;
    }
    if (f.subspace.has_value() && r.fact.subspace != *f.subspace) {
      return false;
    }
    if (f.about.has_value() &&
        !r.fact.constraint.SubsumedByOrEqual(*f.about)) {
      return false;
    }
    if (r.arrival_seq < f.min_arrival || r.arrival_seq > f.max_arrival) {
      return false;
    }
    if (r.prominence < f.min_prominence) return false;
    return !f.prominent_only || r.prominent;
  }

  std::vector<ModelRecord> records_;
  uint64_t arrivals_ = 0;
};

/// Drains every TopK page of `service` under `filter` into one id list.
std::vector<uint32_t> PaginateAll(const FactService::Snapshot& snap,
                                  const FactFilter& filter, size_t page) {
  std::vector<uint32_t> ids;
  std::optional<TopKCursor> cursor;
  for (;;) {
    FactService::Page p = snap.TopK(page, filter, cursor);
    for (const auto& v : p.facts) ids.push_back(v.id);
    if (!p.next.has_value()) break;
    cursor = p.next;
  }
  return ids;
}

/// Drains every FactsForTuple page for `t` (deliberately small pages, so
/// every call here also exercises the resume-cursor path).
std::vector<FactService::FactView> AllForTuple(
    const FactService::Snapshot& snap, TupleId t) {
  std::vector<FactService::FactView> views;
  std::optional<TopKCursor> cursor;
  for (;;) {
    FactService::Page p = snap.FactsForTuple(t, FactFilter(), 8, cursor);
    views.insert(views.end(), p.facts.begin(), p.facts.end());
    if (!p.next.has_value()) break;
    cursor = p.next;
  }
  return views;
}

/// Drains every FactsInWindow page of [first, last] under `filter`.
std::vector<FactService::FactView> AllInWindow(
    const FactService::Snapshot& snap, uint64_t first, uint64_t last,
    const FactFilter& filter = {}) {
  std::vector<FactService::FactView> views;
  std::optional<TopKCursor> cursor;
  for (;;) {
    FactService::Page p = snap.FactsInWindow(first, last, filter, 8, cursor);
    views.insert(views.end(), p.facts.begin(), p.facts.end());
    if (!p.next.has_value()) break;
    cursor = p.next;
  }
  return views;
}

TEST(CowVec, AppendMutateAndStructuralSharing) {
  CowVec<int> v;
  for (int i = 0; i < 1000; ++i) v.PushBack(i);
  ASSERT_EQ(v.size(), 1000u);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);

  v.Seal();
  CowVec<int> snapshot = v;  // shares every chunk

  // Mutations after sealing must not be visible through the copy.
  v.Mutate(0) = -1;
  v.Mutate(999) = -2;
  for (int i = 0; i < 200; ++i) v.PushBack(1000 + i);
  EXPECT_EQ(snapshot.size(), 1000u);
  EXPECT_EQ(snapshot[0], 0);
  EXPECT_EQ(snapshot[999], 999);
  EXPECT_EQ(v[0], -1);
  EXPECT_EQ(v[999], -2);
  EXPECT_EQ(v.size(), 1200u);
  EXPECT_EQ(v[1100], 1100);
}

TEST(CowVec, RepeatedSealsAndPartialChunks) {
  CowVec<std::string> v;
  std::vector<CowVec<std::string>> snaps;
  for (int i = 0; i < 600; ++i) {
    v.PushBack("s" + std::to_string(i));
    if (i % 37 == 0) {
      v.Seal();
      snaps.push_back(v);
    }
  }
  // Every snapshot still sees exactly its prefix.
  size_t expect = 1;
  for (const auto& s : snaps) {
    ASSERT_GE(s.size(), expect);
    for (size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s[i], "s" + std::to_string(i));
    }
    expect = s.size();
  }
}

TEST(FactIndex, TopKMatchesNaiveModelAndPaginates) {
  Dataset data = TestData(120, 3);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);
  Model model;
  for (const Row& row : data.rows()) {
    ArrivalReport report = engine->Append(row);
    service.OnArrival(report);
    model.OnArrival(report);
  }

  FactService::Snapshot snap = service.Acquire();
  EXPECT_EQ(snap.arrivals(), data.rows().size());
  EXPECT_EQ(snap.fact_count(), model.size());

  FactFilter all;
  std::vector<uint32_t> expected = model.TopKIds(all);

  // One-shot TopK prefix.
  FactService::Page top10 = snap.TopK(10, all);
  ASSERT_EQ(top10.facts.size(), std::min<size_t>(10, expected.size()));
  for (size_t i = 0; i < top10.facts.size(); ++i) {
    ASSERT_EQ(top10.facts[i].id, expected[i]) << "rank " << i;
  }

  // Full pagination in odd page sizes covers exactly the expected order.
  EXPECT_EQ(PaginateAll(snap, all, 7), expected);
  EXPECT_EQ(PaginateAll(snap, all, 1), expected);
  EXPECT_EQ(PaginateAll(snap, all, 1000), expected);

  // Prominence ordering is descending with record-id tiebreak.
  for (size_t i = 1; i < expected.size(); ++i) {
    double prev = model.at(expected[i - 1]).prominence;
    double cur = model.at(expected[i]).prominence;
    ASSERT_TRUE(prev > cur || (prev == cur && expected[i - 1] < expected[i]));
  }
}

TEST(FactIndex, FiltersMatchNaiveModel) {
  Dataset data = TestData(150, 5);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);
  Model model;
  for (const Row& row : data.rows()) {
    ArrivalReport report = engine->Append(row);
    service.OnArrival(report);
    model.OnArrival(report);
  }
  // One dead tuple, so liveness is part of what the filters decide.
  ASSERT_TRUE(engine->Remove(42).ok());
  ASSERT_TRUE(service.OnRemove(42).ok());
  model.OnRemove(42);
  FactService::Snapshot snap = service.Acquire();

  std::vector<FactFilter> filters;
  {
    FactFilter f;
    f.tuple = 42;
    filters.push_back(f);
    f = FactFilter();
    f.subspace = 0b01;
    filters.push_back(f);
    f = FactFilter();
    f.bound_mask = 0b010;
    filters.push_back(f);
    f = FactFilter();
    f.min_arrival = 50;
    f.max_arrival = 99;
    filters.push_back(f);
    f = FactFilter();
    f.min_prominence = 3.0;
    filters.push_back(f);
    f = FactFilter();
    f.prominent_only = true;
    filters.push_back(f);
    f = FactFilter();
    f.about = Constraint::ForTuple(rel, 10, 0b001);
    filters.push_back(f);
    f = FactFilter();
    f.about = Constraint::ForTuple(rel, 10, 0b101);
    f.subspace = 0b10;
    f.min_prominence = 2.0;
    filters.push_back(f);
    f = FactFilter();
    f.include_dead = true;
    filters.push_back(f);
    f.tuple = 42;
    filters.push_back(f);
    f = FactFilter();
    f.about = Constraint::ForTuple(rel, 42, 0b011);
    f.bound_mask = 0b011;
    f.include_dead = true;
    filters.push_back(f);
  }
  for (size_t fi = 0; fi < filters.size(); ++fi) {
    SCOPED_TRACE("filter " + std::to_string(fi));
    std::vector<uint32_t> expected = model.TopKIds(filters[fi]);
    EXPECT_EQ(PaginateAll(snap, filters[fi], 5), expected);
  }

  // The `about` filter means subsumption: every hit binds the asked values.
  FactFilter about;
  about.about = Constraint::ForTuple(rel, 10, 0b001);
  for (const auto& view : snap.TopK(1000, about).facts) {
    EXPECT_TRUE(view.fact.constraint.SubsumedByOrEqual(*about.about));
  }
}

TEST(FactIndex, ShapePinnedPagesNameANextCursorOnlyWhileMatchesRemain) {
  // A bound_mask or subspace page sets `next` exactly when a further match
  // exists, so a drain never ends on an empty page (the unfiltered walk may
  // end on one; see TopKResult).
  Dataset data = TestData(120, 19);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);
  Model model;
  for (const Row& row : data.rows()) {
    ArrivalReport report = engine->Append(row);
    service.OnArrival(report);
    model.OnArrival(report);
  }
  FactService::Snapshot snap = service.Acquire();

  std::vector<FactFilter> filters;
  for (DimMask mask = 0; mask < 8; ++mask) {
    FactFilter f;
    f.bound_mask = mask;
    filters.push_back(f);
  }
  for (MeasureMask subspace = 1; subspace < 4; ++subspace) {
    FactFilter f;
    f.subspace = subspace;
    filters.push_back(f);
  }
  for (size_t fi = 0; fi < filters.size(); ++fi) {
    const std::vector<uint32_t> expected = model.TopKIds(filters[fi]);
    for (size_t k : {1, 4}) {
      SCOPED_TRACE("filter " + std::to_string(fi) + " k " + std::to_string(k));
      size_t served = 0;
      std::optional<TopKCursor> cursor;
      for (;;) {
        FactService::Page page = snap.TopK(k, filters[fi], cursor);
        for (const auto& view : page.facts) {
          ASSERT_LT(served, expected.size());
          ASSERT_EQ(view.id, expected[served++]);
        }
        ASSERT_EQ(page.next.has_value(), served < expected.size());
        if (!page.next.has_value()) break;
        cursor = page.next;
      }
      ASSERT_EQ(served, expected.size());
    }
  }
}

TEST(FactIndex, SnapshotIsolationAcrossMutations) {
  Dataset data = TestData(80, 7);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);

  for (size_t i = 0; i < 40; ++i) {
    service.OnArrival(engine->Append(data.rows()[i]));
  }
  FactService::Snapshot old = service.Acquire();
  const uint64_t old_epoch = old.epoch();
  const size_t old_count = old.fact_count();
  FactService::Page old_top = old.TopK(10);

  // Keep ingesting and remove a tuple; the pinned snapshot must not move.
  for (size_t i = 40; i < 80; ++i) {
    service.OnArrival(engine->Append(data.rows()[i]));
  }
  ASSERT_TRUE(engine->Remove(3).ok());
  ASSERT_TRUE(service.OnRemove(3).ok());

  EXPECT_EQ(old.epoch(), old_epoch);
  EXPECT_EQ(old.fact_count(), old_count);
  EXPECT_EQ(old.arrivals(), 40u);
  FactService::Page again = old.TopK(10);
  ASSERT_EQ(again.facts.size(), old_top.facts.size());
  for (size_t i = 0; i < again.facts.size(); ++i) {
    EXPECT_EQ(again.facts[i].id, old_top.facts[i].id);
    EXPECT_EQ(again.facts[i].live, old_top.facts[i].live);
  }

  // The fresh snapshot sees the removal and the new arrivals.
  FactService::Snapshot fresh = service.Acquire();
  EXPECT_GT(fresh.epoch(), old_epoch);
  EXPECT_EQ(fresh.arrivals(), 80u);
  EXPECT_TRUE(AllForTuple(fresh, 3).empty());
  FactFilter dead;
  dead.include_dead = true;
  dead.tuple = 3;
  EXPECT_FALSE(fresh.TopK(1000, dead).facts.empty());
}

TEST(FactIndex, RemoveAndUpdateSemantics) {
  Dataset data = TestData(60, 9);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);
  for (const Row& row : data.rows()) {
    service.OnArrival(engine->Append(row));
  }

  // Unknown / double removals are rejected.
  EXPECT_FALSE(service.OnRemove(10000).ok());
  ASSERT_TRUE(engine->Remove(5).ok());
  ASSERT_TRUE(service.OnRemove(5).ok());
  EXPECT_FALSE(service.OnRemove(5).ok());

  // Update: old tuple's facts die, replacement arrives under a fresh id.
  auto report_or = engine->Update(7, data.rows()[0]);
  ASSERT_TRUE(report_or.ok());
  const TupleId new_id = report_or.value().tuple;
  ASSERT_TRUE(service.OnUpdate(7, report_or.value()).ok());

  FactService::Snapshot snap = service.Acquire();
  EXPECT_TRUE(AllForTuple(snap, 7).empty());
  EXPECT_FALSE(AllForTuple(snap, new_id).empty());
  // Window queries skip dead records but keep the arrival numbering dense.
  EXPECT_EQ(snap.arrivals(), data.rows().size() + 1);
  for (const auto& view : AllInWindow(snap, 0, snap.arrivals() - 1)) {
    EXPECT_TRUE(view.live);
    EXPECT_NE(view.tuple, 5u);
    EXPECT_NE(view.tuple, 7u);
  }
}

TEST(FactIndex, ReplayedArrivalSupersedesWithoutDuplicates) {
  // At-least-once producers may re-deliver an arrival after recovery. The
  // replay must supersede the first delivery everywhere: no query surface
  // may serve the same fact twice, and a later removal must kill the
  // replacement, leaving nothing live.
  Dataset data = TestData(20, 43);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);
  std::vector<ArrivalReport> reports;
  for (const Row& row : data.rows()) {
    reports.push_back(engine->Append(row));
    service.OnArrival(reports.back());
  }

  const TupleId replayed = 7;
  const size_t before = service.Acquire().fact_count();
  service.OnArrival(reports[replayed]);  // duplicate delivery

  FactService::Snapshot snap = service.Acquire();
  EXPECT_EQ(snap.fact_count(), before + reports[replayed].ranked.size());
  // Per-tuple, window, and TopK views all agree: one live copy.
  EXPECT_EQ(AllForTuple(snap, replayed).size(),
            reports[replayed].ranked.size());
  FactFilter mine;
  mine.tuple = replayed;
  EXPECT_EQ(snap.TopK(1000, mine).facts.size(),
            reports[replayed].ranked.size());
  size_t in_window = 0;
  for (const auto& view : AllInWindow(snap, 0, snap.arrivals() - 1)) {
    if (view.tuple == replayed) ++in_window;
  }
  EXPECT_EQ(in_window, reports[replayed].ranked.size());

  // Removal follows the remapped arrival and leaves no live copy behind.
  ASSERT_TRUE(service.OnRemove(replayed).ok());
  snap = service.Acquire();
  EXPECT_TRUE(AllForTuple(snap, replayed).empty());
  EXPECT_TRUE(snap.TopK(1000, mine).facts.empty());
}

TEST(FactIndex, PublishEveryBatchesEpochsAndFlushForces) {
  Dataset data = TestData(30, 13);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService::Options options;
  options.publish_every = 10;
  FactService service(&rel, options);

  for (int i = 0; i < 25; ++i) {
    service.OnArrival(engine->Append(data.rows()[i]));
  }
  // 25 ops at publish_every=10 -> the published epoch lags at 20.
  FactService::Snapshot snap = service.Acquire();
  EXPECT_EQ(snap.epoch(), 20u);
  EXPECT_EQ(snap.arrivals(), 20u);

  service.Flush();
  snap = service.Acquire();
  EXPECT_EQ(snap.epoch(), 25u);
  EXPECT_EQ(snap.arrivals(), 25u);
}

/// The facts of `report` in the order the index stores them: ranked when
/// the engine ranked, canonical otherwise (unranked facts carry zeros).
std::vector<RankedFact> ReportOrder(const ArrivalReport& report) {
  if (!report.ranked.empty()) return report.ranked;
  std::vector<RankedFact> out;
  for (const SkylineFact& fact : report.facts) {
    RankedFact rf;
    rf.fact = fact;
    out.push_back(rf);
  }
  return out;
}

TEST(FactIndex, NarrationsRenderOnReadFromTheArrivalsRow) {
  Dataset data = TestData(40, 17);
  // Fractional values exercise the two-decimal measure rendering.
  for (Row& row : data.mutable_rows()) row.measures[0] += 0.25;

  struct Leg {
    const char* name;
    std::string entity;
    bool rank_facts;
  };
  for (const Leg& leg : {Leg{"entity", "d0", true}, Leg{"no entity", "", true},
                         Leg{"unranked", "d1", false}}) {
    SCOPED_TRACE(leg.name);
    auto rel = std::make_unique<Relation>(data.schema());
    auto engine = MakeEngine(rel.get(), 2.0, leg.rank_facts);
    FactService::Options options;
    options.entity = leg.entity;
    auto service = std::make_unique<FactService>(rel.get(), options);
    const FactNarrator narrator(
        rel.get(),
        leg.entity.empty() ? -1 : rel->schema().DimensionIndex(leg.entity));

    // The sentences FactNarrator renders while each arrival is current.
    std::vector<std::string> expected;
    for (const Row& row : data.rows()) {
      const ArrivalReport report = engine->Append(row);
      service->OnArrival(report);
      if (!report.facts.empty()) {
        EXPECT_EQ(report.ranked.empty(), !leg.rank_facts);
      }
      for (const RankedFact& rf : ReportOrder(report)) {
        expected.push_back(narrator.Narrate(report.tuple, rf));
      }
    }
    const FactService::Snapshot pinned = service->Acquire();
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(pinned.fact_count(), expected.size());
    for (uint32_t id = 0; id < expected.size(); ++id) {
      const std::optional<FactService::FactView> view = pinned.Fact(id);
      ASSERT_TRUE(view.has_value());
      ASSERT_EQ(view->narration, expected[id]) << "record " << id;
      ASSERT_EQ(pinned.Explain(*view), view->narration);
    }

    // 100 more arrivals, each adding dimension values the dictionaries have
    // never seen, then the whole stack torn down: the pinned epoch still
    // renders byte-identical text, because it reads only its row copies.
    for (int i = 0; i < 100; ++i) {
      Row row = data.rows()[i % data.rows().size()];
      for (std::string& v : row.dimensions) v += "_new" + std::to_string(i);
      service->OnArrival(engine->Append(row));
    }
    EXPECT_EQ(service->Acquire().arrivals(), data.rows().size() + 100);
    service.reset();
    engine.reset();
    rel.reset();
    for (uint32_t id = 0; id < expected.size(); ++id) {
      ASSERT_EQ(pinned.Fact(id)->narration, expected[id]) << "record " << id;
    }
    for (const FactService::FactView& view : pinned.TopK(10).facts) {
      EXPECT_EQ(view.narration, expected[view.id]);
    }
  }
}

/// Every record's FactView::fact equals its engine report's fact, record for
/// record in report order — the invariant the numeric FactRecord relies on
/// (a fact binds its arrival tuple's own values).
void ExpectViewsMatchReports(const FactService& service,
                             const std::vector<ArrivalReport>& reports) {
  const FactService::Snapshot snap = service.Acquire();
  ASSERT_EQ(snap.arrivals(), reports.size());
  size_t facts = 0;
  for (const ArrivalReport& report : reports) {
    const std::vector<RankedFact> want = ReportOrder(report);
    const std::vector<FactService::FactView> got =
        AllForTuple(snap, report.tuple);
    ASSERT_EQ(got.size(), want.size()) << "tuple " << report.tuple;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].fact, want[i].fact)
          << "tuple " << report.tuple << " record " << i;
    }
    facts += got.size();
  }
  EXPECT_EQ(snap.fact_count(), facts);
  EXPECT_GT(facts, 0u);
}

TEST(FactIndex, ViewFactsEqualReportFactsAcrossEngines) {
  Dataset data = TestData(80, 37);
  for (const std::string algorithm : {"STopDown", "SBottomUp"}) {
    SCOPED_TRACE(algorithm);
    Relation rel(data.schema());
    auto engine = MakeEngine(&rel, 2.0, true, algorithm);
    FactService service(&rel);
    std::vector<ArrivalReport> reports;
    for (const Row& row : data.rows()) {
      reports.push_back(engine->Append(row));
      service.OnArrival(reports.back());
    }
    ExpectViewsMatchReports(service, reports);
  }
  {
    SCOPED_TRACE("ShardedEngine K=2");
    Relation rel(data.schema());
    ShardedEngine::Config config;
    config.num_shards = 2;
    config.tau = 2.0;
    ShardedEngine engine(&rel, config);
    FactService service(&rel);
    std::vector<ArrivalReport> reports =
        engine.AppendBatch(std::span<const Row>(data.rows()));
    for (const ArrivalReport& report : reports) service.OnArrival(report);
    ExpectViewsMatchReports(service, reports);
  }
  {
    SCOPED_TRACE("DurableEngine via FromDurable");
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("sitfact_fact_view_test_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    persist::DurableOptions opts;
    opts.dir = dir;
    opts.tau = 2.0;
    std::vector<ArrivalReport> reports;
    {
      auto durable_or = persist::DurableEngine::Open(opts, data.schema());
      ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
      auto durable = std::move(durable_or).value();
      FactService live(&durable->relation());
      for (const Row& row : data.rows()) {
        auto report_or = durable->Append(row);
        ASSERT_TRUE(report_or.ok());
        reports.push_back(std::move(report_or).value());
        live.OnArrival(reports.back());
      }
      ExpectViewsMatchReports(live, reports);
    }
    auto durable_or = persist::DurableEngine::Open(opts, Schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    auto service_or = FactService::FromDurable(durable_or.value().get());
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    ExpectViewsMatchReports(*service_or.value(), reports);
    std::filesystem::remove_all(dir);
  }
}

TEST(FactService, RebuildMatchesLiveStream) {
  Dataset data = TestData(90, 19);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService live(&rel);
  for (const Row& row : data.rows()) {
    live.OnArrival(engine->Append(row));
  }

  auto rebuilt_or = FactService::Rebuild(&rel, {}, /*tau=*/2.0);
  ASSERT_TRUE(rebuilt_or.ok()) << rebuilt_or.status().ToString();
  FactService::Snapshot a = live.Acquire();
  FactService::Snapshot b = rebuilt_or.value()->Acquire();

  ASSERT_EQ(a.fact_count(), b.fact_count());
  ASSERT_EQ(a.arrivals(), b.arrivals());
  ASSERT_EQ(PaginateAll(a, FactFilter(), 9), PaginateAll(b, FactFilter(), 9));
  // Per-record equality: same facts, same prominence, same prominent set.
  for (TupleId t = 0; t < rel.size(); ++t) {
    auto fa = AllForTuple(a, t);
    auto fb = AllForTuple(b, t);
    ASSERT_EQ(fa.size(), fb.size()) << "tuple " << t;
    for (size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i].fact, fb[i].fact);
      ASSERT_EQ(fa[i].prominence, fb[i].prominence);
      ASSERT_EQ(fa[i].prominent, fb[i].prominent);
    }
  }
}

TEST(FactService, FromDurableServesAfterRecovery) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sitfact_fact_service_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  Dataset data = TestData(70, 23);

  // Live run: durable store + service fed from live reports.
  std::vector<std::vector<uint32_t>> live_for_tuple;
  {
    persist::DurableOptions opts;
    opts.dir = dir;
    opts.tau = 2.0;
    auto durable_or = persist::DurableEngine::Open(opts, data.schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    auto durable = std::move(durable_or).value();
    FactService live(&durable->relation());
    for (const Row& row : data.rows()) {
      auto report_or = durable->Append(row);
      ASSERT_TRUE(report_or.ok());
      live.OnArrival(report_or.value());
    }
    ASSERT_TRUE(durable->Checkpoint().ok());
    FactService::Snapshot snap = live.Acquire();
    for (TupleId t = 0; t < durable->relation().size(); ++t) {
      std::vector<uint32_t> ids;
      for (const auto& v : AllForTuple(snap, t)) ids.push_back(v.id);
      live_for_tuple.push_back(std::move(ids));
    }
  }

  // "Crashed" process comes back: recover the store, rebuild the service,
  // and serve immediately.
  {
    persist::DurableOptions opts;
    opts.dir = dir;
    auto durable_or = persist::DurableEngine::Open(opts, Schema());
    ASSERT_TRUE(durable_or.ok()) << durable_or.status().ToString();
    auto durable = std::move(durable_or).value();
    auto service_or = FactService::FromDurable(durable.get());
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    FactService::Snapshot snap = service_or.value()->Acquire();
    EXPECT_EQ(snap.arrivals(), data.rows().size());
    ASSERT_EQ(live_for_tuple.size(), durable->relation().size());
    for (TupleId t = 0; t < durable->relation().size(); ++t) {
      EXPECT_EQ(AllForTuple(snap, t).size(), live_for_tuple[t].size())
          << "tuple " << t;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(FactIndex, NbaShapedIndexCostsAtMostSixteenBytesPerFact) {
  // The paper's case-study shape (d=5, m=7, d̂=m̂=3): ~10^3 facts per
  // arrival, all binding the arrival's values. The index stores them as one
  // block per arrival, 8 bytes per fact plus per-arrival headers, runs and
  // directory entries, all counted by ApproxMemoryBytes.
  constexpr int kRows = 240;
  NbaGenerator::Config cfg;
  cfg.tuples_per_season = kRows / 8;
  NbaGenerator gen(cfg);
  auto data = gen.Generate(kRows).Project(NbaGenerator::DimensionsForD(5),
                                          NbaGenerator::MeasuresForM(7));
  ASSERT_TRUE(data.ok());
  Relation rel(data.value().schema());
  DiscoveryOptions discovery;
  discovery.max_bound_dims = 3;
  discovery.max_measure_dims = 3;
  auto disc_or = DiscoveryEngine::CreateDiscoverer("STopDown", &rel, discovery);
  ASSERT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.options = discovery;
  config.tau = 2.0;
  DiscoveryEngine engine(&rel, std::move(disc_or).value(), config);
  FactService::Options options;
  options.entity = "player";
  FactService service(&rel, options);

  size_t reported = 0;
  for (const Row& row : data.value().rows()) {
    const ArrivalReport report = engine.Append(row);
    reported += report.ranked.size();
    service.OnArrival(report);
  }
  const FactService::Snapshot snap = service.Acquire();
  ASSERT_EQ(snap.fact_count(), reported);
  ASSERT_GT(snap.fact_count(), 100u * kRows);
  const double bytes_per_fact =
      static_cast<double>(snap.ApproxMemoryBytes()) /
      static_cast<double>(snap.fact_count());
  EXPECT_LE(bytes_per_fact, 16.0);
  EXPECT_GE(bytes_per_fact, static_cast<double>(sizeof(PackedFact)));
}

TEST(FactService, FactFeedMaintainsIndexAndQueryIsLive) {
  Dataset data = TestData(100, 29);
  Relation rel(data.schema());
  auto engine = MakeEngine(&rel);
  FactService service(&rel);

  FactFeed::Options options;
  options.fact_service = &service;
  FactFeed feed(engine.get(), nullptr, options);
  for (const Row& row : data.rows()) {
    ASSERT_TRUE(feed.Publish(row));
  }
  feed.Drain();
  FactService::Snapshot snap = feed.Query();
  EXPECT_EQ(snap.arrivals(), data.rows().size());
  feed.Stop();

  // Matches a synchronous run through a second engine + service.
  Relation rel2(data.schema());
  auto engine2 = MakeEngine(&rel2);
  FactService sync(&rel2);
  for (const Row& row : data.rows()) {
    sync.OnArrival(engine2->Append(row));
  }
  FactService::Snapshot expect = sync.Acquire();
  ASSERT_EQ(snap.fact_count(), expect.fact_count());
  EXPECT_EQ(PaginateAll(snap, FactFilter(), 11),
            PaginateAll(expect, FactFilter(), 11));
}

}  // namespace
}  // namespace sitfact
