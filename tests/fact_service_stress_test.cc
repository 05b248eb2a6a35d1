// Concurrency stress for service/fact_service.h: reader threads hammer
// TopK / pagination / window queries while FactFeed ingests on its worker
// thread, or while the writer appends, removes and replays arrivals. Runs
// under the TSan preset in CI (test names are matched by the `FactService`
// regex there). Every acquired snapshot is checked for internal
// consistency — a torn epoch (records without their directory entry, a
// dangling index id, a page out of order, a filtered drain that disagrees
// with the unfiltered one) fails the test — and readers render narrations
// while ingestion appends to the relation.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/json.h"
#include "service/fact_feed.h"
#include "service/fact_service.h"
#include "service/query_api.h"
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

/// Drains every TopK page of `filter`, resuming from each page's cursor.
std::vector<uint32_t> DrainTopK(const FactService::Snapshot& snap,
                                const FactFilter& filter, size_t page) {
  std::vector<uint32_t> ids;
  std::optional<TopKCursor> cursor;
  for (;;) {
    FactService::Page p = snap.TopK(page, filter, cursor);
    for (const auto& view : p.facts) ids.push_back(view.id);
    if (!p.next.has_value()) return ids;
    cursor = p.next;
  }
}

/// Drains every FactsInWindow page over the snapshot's whole arrival range.
std::vector<uint32_t> DrainWindow(const FactService::Snapshot& snap,
                                  size_t page) {
  std::vector<uint32_t> ids;
  if (snap.arrivals() == 0) return ids;
  std::optional<TopKCursor> cursor;
  for (;;) {
    FactService::Page p = snap.FactsInWindow(0, snap.arrivals() - 1,
                                             FactFilter(), page, cursor);
    for (const auto& view : p.facts) ids.push_back(view.id);
    if (!p.next.has_value()) return ids;
    cursor = p.next;
  }
}

/// The wire bytes of every page of `request`, drained by cursor.
std::string DrainBytes(const FactService::Snapshot& snap,
                       QueryRequest request) {
  std::string bytes;
  for (;;) {
    auto response = ExecuteQuery(snap, request);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return bytes;
    bytes += net::SerializeResponse(response.value());
    bytes += '\n';
    if (!response.value().next.has_value()) return bytes;
    request.cursor = response.value().next;
  }
}

/// Full internal consistency check of one snapshot; any torn epoch — a
/// record without its directory entry, a dangling index id, a page out of
/// order, a filtered drain that is not the matching subsequence of the
/// unfiltered one — trips an assertion.
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
  std::vector<uint32_t> paged_mask_1;      // bound mask {d0}
  std::vector<uint32_t> paged_subspace_1;  // subspace {m0}
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
      if (view.fact.constraint.bound_mask() == 0b001) {
        paged_mask_1.push_back(view.id);
      }
      if (view.fact.subspace == 0b01) paged_subspace_1.push_back(view.id);
    }
    if (!page.next.has_value()) break;
    cursor = page.next;
  }
  FactService::Page all = snap.TopK(snap.fact_count() + 1);
  ASSERT_EQ(paged.size(), all.facts.size());
  for (size_t i = 0; i < paged.size(); ++i) {
    ASSERT_EQ(paged[i], all.facts[i].id);
  }

  // Shape-pinned drains walk the same buckets with run and fact
  // prefilters; the window drain walks the directory in record-id order.
  FactFilter by_mask;
  by_mask.bound_mask = 0b001;
  ASSERT_EQ(DrainTopK(snap, by_mask, 5), paged_mask_1);
  FactFilter by_subspace;
  by_subspace.subspace = 0b01;
  ASSERT_EQ(DrainTopK(snap, by_subspace, 5), paged_subspace_1);
  std::vector<uint32_t> by_id = paged;
  std::sort(by_id.begin(), by_id.end());
  ASSERT_EQ(DrainWindow(snap, 13), by_id);

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

  // Pin an early snapshot, then keep mutating (appends, removals of pinned
  // and unpinned tuples, one replayed arrival) from the writer while
  // readers re-validate the pinned epoch and check fresh ones concurrently.
  std::vector<ArrivalReport> reports;
  for (int i = 0; i < 50; ++i) {
    reports.push_back(engine->Append(data.rows()[i]));
    service.OnArrival(reports.back());
  }
  FactService::Snapshot pinned = service.Acquire();
  const size_t pinned_count = pinned.fact_count();
  FactService::Page pinned_top = pinned.TopK(20);

  // Every query surface of the pinned epoch, as wire bytes.
  std::vector<QueryRequest> requests(5);
  requests[0].k = 7;
  requests[1].k = 7;
  requests[1].filter.bound_mask = 0b001;
  requests[2].k = 7;
  requests[2].filter.subspace = 0b01;
  requests[3].kind = QueryKind::kFactsInWindow;
  requests[3].window_first = 0;
  requests[3].window_last = 49;
  requests[3].k = 25;
  requests[4].kind = QueryKind::kFactsForTuple;
  requests[4].tuple = 10;
  requests[4].k = 3;
  std::vector<std::string> pinned_bytes;
  for (const QueryRequest& request : requests) {
    pinned_bytes.push_back(DrainBytes(pinned, request));
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> fresh_checked{0};
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
        for (size_t r = 0; r < requests.size(); ++r) {
          ASSERT_EQ(DrainBytes(pinned, requests[r]), pinned_bytes[r])
              << "request " << r;
        }
      }
    });
  }
  readers.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      CheckSnapshotConsistency(service.Acquire());
      ++fresh_checked;
    }
  });

  const TupleId replayed = 20;
  for (int i = 50; i < 200; ++i) {
    reports.push_back(engine->Append(data.rows()[i]));
    service.OnArrival(reports.back());
    if (i % 7 == 0) {
      TupleId victim = static_cast<TupleId>(i - 3);
      if (engine->Remove(victim).ok()) {
        ASSERT_TRUE(service.OnRemove(victim).ok());
      }
    }
    if (i == 100) {
      // A tuple the pinned epoch serves as live.
      ASSERT_TRUE(engine->Remove(10).ok());
      ASSERT_TRUE(service.OnRemove(10).ok());
    }
    if (i == 150) service.OnArrival(reports[replayed]);  // re-delivery
  }
  while (fresh_checked.load() == 0 && !::testing::Test::HasFailure()) {
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : readers) t.join();

  // Fresh snapshot diverged; pinned one did not.
  const FactService::Snapshot fresh = service.Acquire();
  EXPECT_GT(fresh.fact_count(), pinned_count);
  EXPECT_EQ(pinned.fact_count(), pinned_count);
  CheckSnapshotConsistency(fresh);
  for (size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(DrainBytes(pinned, requests[r]), pinned_bytes[r]);
  }
  // The removal is visible only from later epochs, and the replay left one
  // live copy of its facts.
  EXPECT_FALSE(pinned.FactsForTuple(10, FactFilter(), 1).facts.empty());
  EXPECT_TRUE(fresh.FactsForTuple(10, FactFilter(), 1).facts.empty());
  FactFilter mine;
  mine.tuple = replayed;
  EXPECT_EQ(fresh.TopK(1000, mine).facts.size(),
            reports[replayed].ranked.size());
}

}  // namespace
}  // namespace sitfact
