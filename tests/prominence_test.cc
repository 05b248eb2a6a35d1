// Prominence evaluation must produce identical numbers whichever storage
// policy backs it: bucket sizes under Invariant 1, ancestor-union counting
// under Invariant 2 — both validated against from-scratch skylines. RankAll's
// one-pass lattice walk is diffed against the per-fact Evaluate reference,
// on hand-built stores (its edge cases) and inside live engines.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bottom_up.h"
#include "core/engine.h"
#include "core/prominence.h"
#include "core/top_down.h"
#include "skyline/skyline_compute.h"
#include "storage/context_counter.h"
#include "storage/file_mu_store.h"
#include "storage/memory_mu_store.h"
#include "test_util.h"

namespace sitfact {
namespace {

namespace fs = std::filesystem;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// The per-fact reference RankAll must reproduce: Evaluate each fact (a
/// separate ancestor walk per fact), then the same stable sort.
std::vector<RankedFact> ReferenceRanking(ProminenceEvaluator& eval,
                                         const std::vector<SkylineFact>& facts) {
  std::vector<RankedFact> ranked;
  for (const SkylineFact& f : facts) ranked.push_back(eval.Evaluate(f));
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedFact& a, const RankedFact& b) {
                     return a.prominence > b.prominence;
                   });
  return ranked;
}

/// Field for field and in order; prominence compared bit for bit.
void ExpectSameRanking(const std::vector<RankedFact>& got,
                       const std::vector<RankedFact>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].fact, want[i].fact) << "rank " << i;
    ASSERT_EQ(got[i].context_size, want[i].context_size) << "rank " << i;
    ASSERT_EQ(got[i].skyline_size, want[i].skyline_size) << "rank " << i;
    ASSERT_EQ(got[i].prominence, want[i].prominence) << "rank " << i;
  }
}

class ProminenceTest : public ::testing::Test {
 protected:
  void Stream(const RandomDataConfig& cfg) {
    data_ = RandomDataset(cfg);
    rel_bu_ = std::make_unique<Relation>(data_.schema());
    rel_td_ = std::make_unique<Relation>(data_.schema());
    bu_ = std::make_unique<BottomUpDiscoverer>(rel_bu_.get(),
                                               DiscoveryOptions{});
    td_ = std::make_unique<TopDownDiscoverer>(rel_td_.get(),
                                              DiscoveryOptions{});
    counter_ = std::make_unique<ContextCounter>(data_.schema()
                                                    .num_dimensions());
    for (const Row& row : data_.rows()) {
      TupleId a = rel_bu_->Append(row);
      counter_->OnArrival(*rel_bu_, a);
      last_facts_.clear();
      bu_->Discover(a, &last_facts_);
      TupleId b = rel_td_->Append(row);
      std::vector<SkylineFact> td_facts;
      td_->Discover(b, &td_facts);
    }
    CanonicalizeFacts(&last_facts_);
  }

  Dataset data_{Schema({{"d"}}, {{"m"}})};
  std::unique_ptr<Relation> rel_bu_;
  std::unique_ptr<Relation> rel_td_;
  std::unique_ptr<BottomUpDiscoverer> bu_;
  std::unique_ptr<TopDownDiscoverer> td_;
  std::unique_ptr<ContextCounter> counter_;
  std::vector<SkylineFact> last_facts_;
};

TEST_F(ProminenceTest, BothPoliciesAgreeWithFromScratchCounts) {
  RandomDataConfig cfg;
  cfg.num_tuples = 70;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  cfg.seed = 4242;
  Stream(cfg);

  ProminenceEvaluator eval_bu(rel_bu_.get(), counter_.get(),
                              bu_->mutable_store(),
                              StoragePolicy::kAllSkylineConstraints);
  ProminenceEvaluator eval_td(rel_td_.get(), counter_.get(),
                              td_->mutable_store(),
                              StoragePolicy::kMaximalSkylineConstraints);

  ASSERT_FALSE(last_facts_.empty());
  for (const SkylineFact& f : last_facts_) {
    RankedFact a = eval_bu.Evaluate(f);
    RankedFact b = eval_td.Evaluate(f);
    uint64_t expected_sky =
        ComputeContextualSkyline(*rel_bu_, f.constraint, f.subspace,
                                 rel_bu_->size())
            .size();
    uint64_t expected_ctx =
        SelectContext(*rel_bu_, f.constraint, rel_bu_->size()).size();
    ASSERT_EQ(a.skyline_size, expected_sky);
    ASSERT_EQ(b.skyline_size, expected_sky);
    ASSERT_EQ(a.context_size, expected_ctx);
    ASSERT_EQ(b.context_size, expected_ctx);
    ASSERT_DOUBLE_EQ(a.prominence, b.prominence);
  }
}

TEST_F(ProminenceTest, RankAllSortsDescending) {
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.seed = 99;
  Stream(cfg);
  ProminenceEvaluator eval(rel_bu_.get(), counter_.get(),
                           bu_->mutable_store(),
                           StoragePolicy::kAllSkylineConstraints);
  auto ranked = eval.RankAll(last_facts_);
  ASSERT_EQ(ranked.size(), last_facts_.size());
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].prominence, ranked[i].prominence);
  }
}

/// Hand-built µ stores around one arrival, so each edge case of the lattice
/// pass is pinned to explicit numbers as well as to the reference. Runs
/// over the memory store (Direct reads) and the file store (Read).
///
/// Tuples (d0, d1): t0 = (x, y), t1 = (z, w), t2 = (x, w), t3 = (x, y), the
/// arrival. Constraint masks: 0b00 = ⊤, 0b01 = x, 0b10 = y, 0b11 = x ∧ y.
class LatticePassTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr TupleId kArrival = 3;
  static constexpr MeasureMask kM = 0b01;

  void SetUp() override {
    relation_ = std::make_unique<Relation>(
        Schema({{"d0"}, {"d1"}}, {{"m0"}, {"m1"}}));
    counter_ = std::make_unique<ContextCounter>(2);
    for (const auto& dims : std::vector<std::vector<std::string>>{
             {"x", "y"}, {"z", "w"}, {"x", "w"}, {"x", "y"}}) {
      counter_->OnArrival(*relation_, relation_->Append(Row{dims, {1, 1}}));
    }
    if (GetParam()) {
      // One directory per test: ctest runs the cases in parallel.
      dir_ = fs::temp_directory_path() /
             (std::string("sitfact_lattice_pass_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name());
      fs::remove_all(dir_);
      store_ = std::make_unique<FileMuStore>(dir_.string());
    } else {
      store_ = std::make_unique<MemoryMuStore>();
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  Constraint C(DimMask mask) const {
    return Constraint::ForTuple(*relation_, kArrival, mask);
  }
  SkylineFact F(DimMask mask, MeasureMask m = kM) const { return {C(mask), m}; }
  void Put(DimMask mask, MeasureMask m, const std::vector<TupleId>& bucket) {
    store_->GetOrCreate(C(mask))->Write(m, bucket);
  }

  /// t0 sits at both incomparable maximal constraints x and y; ⊤ holds t1
  /// (agrees with the arrival nowhere) and t2 (agrees on d0 only).
  void PutTwoMaximalLayout() {
    Put(0b00, kM, {1, 2});
    Put(0b01, kM, {0});
    Put(0b10, kM, {0});
    Put(0b11, kM, {3});
  }

  /// RankAll over canonical `facts`, required to equal the reference.
  std::vector<RankedFact> Rank(
      std::vector<SkylineFact> facts,
      StoragePolicy policy = StoragePolicy::kMaximalSkylineConstraints) {
    CanonicalizeFacts(&facts);
    ProminenceEvaluator eval(relation_.get(), counter_.get(), store_.get(),
                             policy);
    std::vector<RankedFact> ranked = eval.RankAll(facts);
    ExpectSameRanking(ranked, ReferenceRanking(eval, facts));
    return ranked;
  }

  static uint64_t SkylineOf(const std::vector<RankedFact>& ranked,
                            const SkylineFact& fact) {
    for (const RankedFact& r : ranked) {
      if (r.fact == fact) return r.skyline_size;
    }
    ADD_FAILURE() << "fact not ranked";
    return 0;
  }

  std::unique_ptr<Relation> relation_;
  std::unique_ptr<ContextCounter> counter_;
  std::unique_ptr<MuStore> store_;
  fs::path dir_;
};

TEST_P(LatticePassTest, TupleAtTwoMaximalConstraintsCountsOnce) {
  PutTwoMaximalLayout();
  auto ranked = Rank({F(0b00), F(0b01), F(0b10), F(0b11)});
  EXPECT_EQ(SkylineOf(ranked, F(0b00)), 2u);  // t1, t2
  EXPECT_EQ(SkylineOf(ranked, F(0b01)), 2u);  // t2 (agrees on x), t0
  EXPECT_EQ(SkylineOf(ranked, F(0b10)), 1u);  // t0
  EXPECT_EQ(SkylineOf(ranked, F(0b11)), 2u);  // t0 once, t3
  // Prominences 4/2, 3/2, 2/1, 2/2: ties keep canonical order.
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].fact, F(0b00));
  EXPECT_EQ(ranked[1].fact, F(0b10));
  EXPECT_EQ(ranked[2].fact, F(0b01));
  EXPECT_EQ(ranked[3].fact, F(0b11));
}

TEST_P(LatticePassTest, AncestorWithoutMuContext) {
  // ⊤ and y have no context at all; x has one, but no bucket under kM.
  Put(0b01, 0b10, {0});
  Put(0b11, kM, {3});
  ASSERT_EQ(store_->Find(C(0b00)), nullptr);
  ASSERT_EQ(store_->Find(C(0b10)), nullptr);
  auto ranked = Rank({F(0b11, kM), F(0b11, 0b10)});
  EXPECT_EQ(SkylineOf(ranked, F(0b11, kM)), 1u);    // t3
  EXPECT_EQ(SkylineOf(ranked, F(0b11, 0b10)), 1u);  // t0, via x
}

TEST_P(LatticePassTest, BucketEmptiedByRemove) {
  PutTwoMaximalLayout();
  // What Discoverer::Remove's repair does to t0's buckets: the contexts
  // stay, their kM buckets are gone.
  ASSERT_TRUE(store_->Find(C(0b01))->Erase(kM, 0));
  ASSERT_TRUE(store_->Find(C(0b10))->Erase(kM, 0));
  ASSERT_TRUE(store_->Find(C(0b01))->Empty(kM));
  auto ranked = Rank({F(0b00), F(0b01), F(0b11)});
  EXPECT_EQ(SkylineOf(ranked, F(0b00)), 2u);  // t1, t2
  EXPECT_EQ(SkylineOf(ranked, F(0b01)), 1u);  // t2
  EXPECT_EQ(SkylineOf(ranked, F(0b11)), 1u);  // t3
}

TEST_P(LatticePassTest, TopOnlyFacts) {
  Put(0b00, kM, {1, 2});
  Put(0b00, 0b10, {1});
  for (StoragePolicy policy : {StoragePolicy::kMaximalSkylineConstraints,
                               StoragePolicy::kAllSkylineConstraints}) {
    auto ranked = Rank({F(0b00, kM), F(0b00, 0b10)}, policy);
    EXPECT_EQ(SkylineOf(ranked, F(0b00, kM)), 2u);
    EXPECT_EQ(SkylineOf(ranked, F(0b00, 0b10)), 1u);
    EXPECT_EQ(ranked.front().context_size, 4u);
  }
}

TEST_P(LatticePassTest, EmptyFactList) {
  PutTwoMaximalLayout();
  EXPECT_TRUE(Rank({}).empty());
  EXPECT_TRUE(Rank({}, StoragePolicy::kAllSkylineConstraints).empty());
}

INSTANTIATE_TEST_SUITE_P(Stores, LatticePassTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "file" : "memory";
                         });

/// The engine differential: a live engine runs an Append/Remove/Update
/// stream, and after every report its ranked list and prominent selection
/// must equal the per-fact reference over the same store, field for field
/// and in order. Covers Invariant 2 over memory (STopDown, TopDown) and
/// file (FSTopDown) stores, and Invariant 1 (SBottomUp). No engine keeps a
/// skyband shadow any more.
void RunRankingDifferential(const std::string& algo, const Dataset& data,
                            const fs::path& dir) {
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algo, &relation, {},
                                                   dir.string());
  ASSERT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);
  EXPECT_EQ(engine.skyband_index(), nullptr);

  ProminenceEvaluator reference(&relation, &engine.counter(),
                                engine.discoverer().mutable_store(),
                                engine.discoverer().storage_policy());
  size_t ranked_facts = 0;
  auto check = [&](const ArrivalReport& report) {
    ASSERT_TRUE(std::is_sorted(report.facts.begin(), report.facts.end()));
    const std::vector<RankedFact> want =
        ReferenceRanking(reference, report.facts);
    ExpectSameRanking(report.ranked, want);
    ExpectSameRanking(report.prominent, SelectProminent(want, config.tau));
    ranked_facts += report.ranked.size();
  };

  Rng rng(5);
  for (const Row& row : data.rows()) {
    check(engine.Append(row));
    if (::testing::Test::HasFatalFailure()) break;
    if (relation.size() > 5 && rng.NextBool(0.2)) {
      const TupleId t = rng.NextBounded(relation.size());
      if (relation.IsDeleted(t)) continue;
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(engine.Remove(t).ok());
      } else {
        auto updated = engine.Update(t, data.rows()[0]);
        ASSERT_TRUE(updated.ok());
        check(updated.value());
        if (::testing::Test::HasFatalFailure()) break;
      }
    }
  }
  EXPECT_GT(ranked_facts, 0u);
}

class EngineRankingTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineRankingTest, ReportsMatchPerFactReference) {
  RandomDataConfig cfg;
  cfg.num_tuples = 90;
  cfg.num_dims = 4;
  cfg.num_measures = 3;
  cfg.seed = 23;
  const fs::path dir =
      fs::temp_directory_path() / ("sitfact_engine_ranking_" + GetParam());
  fs::remove_all(dir);
  RunRankingDifferential(GetParam(), RandomDataset(cfg), dir);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, EngineRankingTest,
                         ::testing::Values("STopDown", "TopDown", "SBottomUp",
                                           "FSTopDown"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(SelectProminentTest, TiesAndThreshold) {
  auto mk = [](double p) {
    RankedFact f;
    f.prominence = p;
    return f;
  };
  std::vector<RankedFact> ranked{mk(8), mk(8), mk(5), mk(2)};
  auto top = SelectProminent(ranked, 3.0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].prominence, 8.0);
  EXPECT_DOUBLE_EQ(top[1].prominence, 8.0);
  EXPECT_TRUE(SelectProminent(ranked, 8.5).empty());
  EXPECT_TRUE(SelectProminent({}, 1.0).empty());
  // τ exactly at the max keeps the ties.
  EXPECT_EQ(SelectProminent(ranked, 8.0).size(), 2u);
}

}  // namespace
}  // namespace sitfact
