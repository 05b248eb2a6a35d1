// Concurrency stress for service/fact_service.h: reader threads hammer
// TopK / pagination / window queries while FactFeed ingests on its worker
// thread. Runs under the TSan preset in CI (test names are matched by the
// `FactService` regex there). Every acquired snapshot is checked for
// internal consistency — a torn epoch (records without their directory
// entry, a dangling index id, a page out of order) fails the test — and
// readers render narrations while ingestion appends to the relation.

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "service/fact_feed.h"
#include "service/fact_service.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

std::unique_ptr<DiscoveryEngine> MakeEngine(Relation* relation, double tau) {
  auto disc_or = DiscoveryEngine::CreateDiscoverer("STopDown", relation, {});
  EXPECT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = tau;
  return std::make_unique<DiscoveryEngine>(relation,
                                           std::move(disc_or).value(),
                                           config);
}

/// Full internal consistency check of one snapshot; any torn epoch — a
/// record without its directory entry, a dangling index id, a page out of
/// order — trips an assertion.
void CheckSnapshotConsistency(const FactService::Snapshot& snap) {
  // Every record reachable through the arrival directory stays in bounds.
  std::vector<FactService::FactView> window =
      snap.FactsInWindow(0, snap.arrivals() == 0 ? 0 : snap.arrivals() - 1,
                         FactFilter(), snap.fact_count() + 1)
          .facts;
  for (const auto& view : window) {
    ASSERT_LT(view.id, snap.fact_count());
    ASSERT_LT(view.arrival_seq, snap.arrivals());
  }

  // Full pagination is sorted, duplicate-free, and identical to a one-shot
  // TopK of everything.
  std::vector<uint32_t> paged;
  std::optional<TopKCursor> cursor;
  double last_prom = 0;
  uint32_t last_id = 0;
  bool first = true;
  for (;;) {
    FactService::Page page = snap.TopK(17, FactFilter(), cursor);
    for (const auto& view : page.facts) {
      // Narrations render on read from the snapshot's row copies; a second
      // rendering of the same record must give the same text.
      ASSERT_FALSE(view.narration.empty());
      ASSERT_EQ(snap.Explain(view), snap.Fact(view.id)->narration);
      if (!first) {
        ASSERT_TRUE(last_prom > view.prominence ||
                    (last_prom == view.prominence && last_id < view.id))
            << "page order violated at id " << view.id;
      }
      first = false;
      last_prom = view.prominence;
      last_id = view.id;
      paged.push_back(view.id);
    }
    if (!page.next.has_value()) break;
    cursor = page.next;
  }
  FactService::Page all = snap.TopK(snap.fact_count() + 1);
  ASSERT_EQ(paged.size(), all.facts.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    ASSERT_EQ(paged[i], all.facts[i].id);
  }

  // Every live record is reachable through its tuple.
  for (const auto& view : all.facts) {
    std::vector<FactService::FactView> per_tuple =
        snap.FactsForTuple(view.tuple, FactFilter(), snap.fact_count() + 1)
            .facts;
    bool found = false;
    for (const auto& other : per_tuple) found |= other.id == view.id;
    ASSERT_TRUE(found) << "record " << view.id << " not indexed under tuple "
                       << view.tuple;
  }
}

TEST(FactServiceStress, ReadersSeeOnlyConsistentEpochsDuringIngestion) {
  RandomDataConfig cfg;
  cfg.num_tuples = 260;
  cfg.seed = 31;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);

  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, 2.0);
  FactService::Options service_options;
  service_options.publish_every = 3;  // readers see batched epochs
  service_options.entity = "d0";
  FactService service(&rel, service_options);

  FactFeed::Options options;
  options.fact_service = &service;
  options.queue_capacity = 32;
  FactFeed feed(engine.get(), nullptr, options);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_checked{0};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_relaxed)) {
        FactService::Snapshot snap = service.Acquire();
        // Epochs only move forward.
        ASSERT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        CheckSnapshotConsistency(snap);
        ++snapshots_checked;
      }
    });
  }

  for (const Row& row : data.rows()) {
    ASSERT_TRUE(feed.Publish(row));
  }
  feed.Drain();
  done.store(true);
  for (auto& t : readers) t.join();
  feed.Stop();

  EXPECT_EQ(feed.processed(), data.rows().size());
  EXPECT_GT(snapshots_checked.load(), 0u);

  // Post-hoc ground truth: the final epoch matches a synchronous rerun.
  service.Flush();
  FactService::Snapshot final_snap = service.Acquire();
  Relation rel2(data.schema());
  auto engine2 = MakeEngine(&rel2, 2.0);
  FactService::Options sync_options;
  sync_options.entity = "d0";
  FactService sync(&rel2, sync_options);
  for (const Row& row : data.rows()) sync.OnArrival(engine2->Append(row));
  FactService::Snapshot expect = sync.Acquire();
  ASSERT_EQ(final_snap.fact_count(), expect.fact_count());
  ASSERT_EQ(final_snap.arrivals(), expect.arrivals());
  FactService::Page a = final_snap.TopK(final_snap.fact_count() + 1);
  FactService::Page b = expect.TopK(expect.fact_count() + 1);
  ASSERT_EQ(a.facts.size(), b.facts.size());
  for (size_t i = 0; i < a.facts.size(); ++i) {
    ASSERT_EQ(a.facts[i].id, b.facts[i].id);
    ASSERT_EQ(a.facts[i].fact, b.facts[i].fact);
    ASSERT_EQ(a.facts[i].prominence, b.facts[i].prominence);
    ASSERT_EQ(a.facts[i].narration, b.facts[i].narration);
  }
}

TEST(FactServiceStress, PinnedSnapshotSurvivesHeavyChurn) {
  RandomDataConfig cfg;
  cfg.num_tuples = 200;
  cfg.seed = 37;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);

  Relation rel(data.schema());
  auto engine = MakeEngine(&rel, 2.0);
  FactService service(&rel);

  // Pin an early snapshot, then keep mutating (appends + removals) from the
  // writer while readers re-validate the pinned epoch concurrently.
  for (int i = 0; i < 50; ++i) service.OnArrival(engine->Append(data.rows()[i]));
  FactService::Snapshot pinned = service.Acquire();
  const size_t pinned_count = pinned.fact_count();
  FactService::Page pinned_top = pinned.TopK(20);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        ASSERT_EQ(pinned.fact_count(), pinned_count);
        FactService::Page again = pinned.TopK(20);
        ASSERT_EQ(again.facts.size(), pinned_top.facts.size());
        for (size_t j = 0; j < again.facts.size(); ++j) {
          ASSERT_EQ(again.facts[j].id, pinned_top.facts[j].id);
          ASSERT_EQ(again.facts[j].live, pinned_top.facts[j].live);
          ASSERT_EQ(pinned.Explain(again.facts[j]),
                    pinned_top.facts[j].narration);
        }
      }
    });
  }

  for (int i = 50; i < 200; ++i) {
    service.OnArrival(engine->Append(data.rows()[i]));
    if (i % 7 == 0) {
      TupleId victim = static_cast<TupleId>(i - 3);
      if (engine->Remove(victim).ok()) {
        ASSERT_TRUE(service.OnRemove(victim).ok());
      }
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();

  // Fresh snapshot diverged; pinned one did not.
  EXPECT_GT(service.Acquire().fact_count(), pinned_count);
  EXPECT_EQ(pinned.fact_count(), pinned_count);
}

}  // namespace
}  // namespace sitfact
