// Tests for the forward skyline operator (query/skyline_query.h): the
// block-nested-loops evaluator against the quadratic oracle, on the paper's
// example, random data with heavy ties, tuple-bound contexts and deletions.

#include "query/skyline_query.h"

#include <algorithm>
#include <vector>

#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

Relation LoadAll(const Dataset& data) {
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  return r;
}

std::vector<TupleId> AllIds(const Relation& r) {
  std::vector<TupleId> ids(r.size());
  for (TupleId t = 0; t < r.size(); ++t) ids[t] = t;
  return ids;
}

Constraint Top(const Relation& r) {
  return Constraint::Top(r.schema().num_dimensions());
}

TEST(EvaluateContextualSkyline, PaperExample3FullSpace) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);

  // Example 3: with M = {m1, m2} and no constraint, t4 (id 3) is the only
  // skyline tuple.
  auto result = EvaluateContextualSkyline(r, Top(r), 0b11);
  EXPECT_EQ(result.skyline, std::vector<TupleId>({3}));
  EXPECT_EQ(result.context_size, 5u);
}

TEST(EvaluateContextualSkyline, PaperExample3Constrained) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);

  // Example 3: C = <a1, b1, c1> selects {t2, t5}; both are in the skyline
  // in full space, only t2 in {m1}.
  Constraint c = Constraint::ForTuple(r, /*t=*/4, /*bound=*/0b111);
  auto full = EvaluateContextualSkyline(r, c, 0b11);
  EXPECT_EQ(full.skyline, std::vector<TupleId>({1, 4}));
  EXPECT_EQ(full.context_size, 2u);
  auto m1_only = EvaluateContextualSkyline(r, c, 0b01);
  EXPECT_EQ(m1_only.skyline, std::vector<TupleId>({1}));
}

TEST(EvaluateContextualSkyline, AgreesWithOracleOnRandomData) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomDataConfig cfg;
    cfg.seed = seed;
    cfg.num_tuples = 160;
    cfg.num_measures = 3;
    cfg.measure_levels = 5;  // heavy ties
    cfg.mixed_directions = (seed % 2 == 0);
    Dataset data = RandomDataset(cfg);
    Relation r = LoadAll(data);

    for (MeasureMask m = 1; m < 8; ++m) {
      auto result = EvaluateContextualSkyline(r, Top(r), m);
      std::vector<TupleId> expected = ComputeSkyline(r, AllIds(r), m);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(result.skyline, expected) << "seed=" << seed << " m=" << m;
      ASSERT_EQ(result.context_size, r.size());
    }
  }
}

TEST(EvaluateContextualSkyline, MatchesOracleOnTupleBoundContexts) {
  // The evaluator selects σ_C(R) itself: every constraint a tuple binds,
  // with some history deleted, must give the oracle's contextual skyline.
  RandomDataConfig cfg;
  cfg.seed = 21;
  cfg.num_tuples = 160;
  cfg.num_measures = 3;
  cfg.measure_levels = 5;
  cfg.mixed_directions = true;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  for (TupleId t = 3; t < r.size(); t += 7) r.MarkDeleted(t);

  const DimMask full = FullMask(r.schema().num_dimensions());
  for (TupleId t : {TupleId{0}, TupleId{58}, TupleId{159}}) {
    for (DimMask bound = 0; bound <= full; ++bound) {
      Constraint c = Constraint::ForTuple(r, t, bound);
      for (MeasureMask m = 1; m < 8; ++m) {
        auto result = EvaluateContextualSkyline(r, c, m);
        std::vector<TupleId> expected =
            ComputeContextualSkyline(r, c, m, r.size());
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(result.skyline, expected)
            << "t=" << t << " bound=" << bound << " m=" << m;
        ASSERT_EQ(result.context_size, SelectContext(r, c, r.size()).size());
      }
    }
  }
}

TEST(EvaluateContextualSkyline, EmptyAndSingletonContexts) {
  Relation none(PaperTableIV().schema());
  auto empty = EvaluateContextualSkyline(none, Top(none), 0b11);
  EXPECT_TRUE(empty.skyline.empty());
  EXPECT_EQ(empty.context_size, 0u);

  // <a2, b1, c2> binds only t3 (id 2).
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  Constraint c = Constraint::ForTuple(r, /*t=*/2, /*bound=*/0b111);
  auto single = EvaluateContextualSkyline(r, c, 0b11);
  EXPECT_EQ(single.skyline, std::vector<TupleId>({2}));
  EXPECT_EQ(single.context_size, 1u);
  EXPECT_EQ(single.comparisons, 0u);

  r.MarkDeleted(2);
  auto gone = EvaluateContextualSkyline(r, c, 0b11);
  EXPECT_TRUE(gone.skyline.empty());
  EXPECT_EQ(gone.context_size, 0u);
}

TEST(EvaluateContextualSkyline, AllEqualTuplesAreAllInSkyline) {
  Schema schema({{"d"}}, {{"m1", Direction::kLargerIsBetter},
                          {"m2", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (int i = 0; i < 100; ++i) r.Append(Row{{"x"}, {7.0, 7.0}});
  auto result = EvaluateContextualSkyline(r, Top(r), 0b11);
  EXPECT_EQ(result.skyline, AllIds(r));  // equal tuples never dominate
}

TEST(EvaluateContextualSkyline, SkipsDeletedTuples) {
  Dataset data = PaperTableIV();
  Relation r = LoadAll(data);
  r.MarkDeleted(3);  // t4 dominated everything in full space
  auto result = EvaluateContextualSkyline(r, Top(r), 0b11);
  EXPECT_EQ(result.context_size, 4u);
  // With t4 gone, t3 = (17, 17) dominates every remaining tuple.
  EXPECT_EQ(result.skyline, std::vector<TupleId>({2}));
}

TEST(EvaluateContextualSkyline, HeavilyTiedMeasure) {
  // All tuples share m1; only m2 separates them, with 17 distinct levels
  // each repeated, so the skyline is every tuple at the top m2 level.
  Schema schema({{"d"}}, {{"m1", Direction::kLargerIsBetter},
                          {"m2", Direction::kLargerIsBetter}});
  Relation r(std::move(schema));
  for (int i = 0; i < 300; ++i) {
    r.Append(Row{{"x"}, {5.0, static_cast<double>(i % 17)}});
  }
  auto result = EvaluateContextualSkyline(r, Top(r), 0b11);
  std::vector<TupleId> expected = ComputeSkyline(r, AllIds(r), 0b11);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(result.skyline, expected);
}

TEST(EvaluateContextualSkyline, CountsContextAndComparisons) {
  // Table IV in arrival order: t2 is compared with t1 (1), t3 with both
  // and evicts them (2), t4 with t3 and evicts it (1), t5 with t4, which
  // dominates it (1).
  Dataset paper = PaperTableIV();
  Relation small = LoadAll(paper);
  auto walked = EvaluateContextualSkyline(small, Top(small), 0b11);
  EXPECT_EQ(walked.comparisons, 5u);

  RandomDataConfig cfg;
  cfg.num_tuples = 200;
  Dataset data = RandomDataset(cfg);
  Relation r = LoadAll(data);
  auto result = EvaluateContextualSkyline(r, Top(r), 0b11);
  EXPECT_GT(result.comparisons, 0u);
  EXPECT_EQ(result.context_size, 200u);
}

}  // namespace
}  // namespace sitfact
