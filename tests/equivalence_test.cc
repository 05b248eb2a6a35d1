// Cross-algorithm equivalence: every discoverer must produce exactly the
// oracle's (BruteForce, Alg. 2) per-arrival fact sets, across randomized
// datasets that stress value agreement, measure ties, duplicates, mixed
// preference directions, and the d̂ / m̂ truncations.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/baseline_idx.h"
#include "core/baseline_seq.h"
#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "core/shared_bottom_up.h"
#include "core/shared_top_down.h"
#include "core/top_down.h"
#include "csc/ccsc_discoverer.h"
#include "storage/file_mu_store.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::DescribeFacts;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::RunStream;

struct EquivalenceCase {
  std::string label;
  RandomDataConfig data;
  DiscoveryOptions options;
};

std::ostream& operator<<(std::ostream& os, const EquivalenceCase& c) {
  return os << c.label;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

std::vector<std::string> AllAlgorithms() {
  return {"BaselineSeq", "BaselineIdx", "C-CSC",      "BottomUp",
          "TopDown",     "SBottomUp",   "STopDown",   "FSBottomUp",
          "FSTopDown"};
}

TEST_P(EquivalenceTest, MatchesOracle) {
  const EquivalenceCase& param = GetParam();
  Dataset data = RandomDataset(param.data);

  // Oracle stream.
  Relation oracle_rel(data.schema());
  BruteForceDiscoverer oracle(&oracle_rel, param.options);
  auto expected = RunStream(&oracle_rel, &oracle, data);

  for (const std::string& name : AllAlgorithms()) {
    SCOPED_TRACE(name);
    Relation rel(data.schema());
    std::string dir;
    if (name.rfind("FS", 0) == 0) {
      // The pid keeps this binary's plain and paged ctest legs, which
      // can run at once, out of each other's bucket files.
      dir = (std::filesystem::temp_directory_path() /
             ("sitfact_eq_" + name + "_" + param.label + "_" +
              std::to_string(::getpid())))
                .string();
    }
    auto disc_or = DiscoveryEngine::CreateDiscoverer(name, &rel,
                                                     param.options, dir);
    ASSERT_TRUE(disc_or.ok()) << disc_or.status().ToString();
    std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
    auto actual = RunStream(&rel, disc.get(), data);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], actual[i])
          << name << " diverged from oracle at arrival " << i << "\nexpected:\n"
          << DescribeFacts(rel, expected[i]) << "actual:\n"
          << DescribeFacts(rel, actual[i]);
    }
  }
}

std::vector<EquivalenceCase> MakeCases() {
  std::vector<EquivalenceCase> cases;

  auto add = [&](std::string label, RandomDataConfig data,
                 DiscoveryOptions options) {
    data.seed = 1000 + cases.size() * 7919;
    cases.push_back({std::move(label), data, options});
  };

  RandomDataConfig base;
  base.num_tuples = 90;
  add("base_d3_m2", base, {});

  RandomDataConfig d4 = base;
  d4.num_dims = 4;
  d4.num_measures = 3;
  add("d4_m3", d4, {});

  RandomDataConfig truncated = d4;
  add("d4_m3_dhat2", truncated, {.max_bound_dims = 2});
  add("d4_m3_mhat2", truncated, {.max_measure_dims = 2});
  add("d4_m3_dhat2_mhat2",
      truncated, {.max_bound_dims = 2, .max_measure_dims = 2});
  add("d4_m3_mhat1", truncated, {.max_measure_dims = 1});

  RandomDataConfig dup = base;
  dup.duplicate_prob = 0.35;
  dup.measure_levels = 3;
  add("heavy_duplicates", dup, {});

  RandomDataConfig mixed = d4;
  mixed.mixed_directions = true;
  add("mixed_directions", mixed, {});

  RandomDataConfig wide = base;
  wide.num_dims = 5;
  wide.num_measures = 2;
  wide.num_tuples = 70;
  wide.dim_cardinality = 2;
  add("d5_binary_dims", wide, {.max_bound_dims = 3});

  RandomDataConfig tiny_card = base;
  tiny_card.dim_cardinality = 1;  // every tuple in every context
  tiny_card.num_tuples = 50;
  add("single_value_dims", tiny_card, {});

  RandomDataConfig many_levels = d4;
  many_levels.measure_levels = 50;  // near-continuous measures, few ties
  add("continuous_measures", many_levels, {});

  RandomDataConfig m1 = base;
  m1.num_measures = 1;
  add("single_measure", m1, {});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, EquivalenceTest,
                         ::testing::ValuesIn(MakeCases()),
                         [](const ::testing::TestParamInfo<EquivalenceCase>&
                                info) { return info.param.label; });

// The scenario from DESIGN.md that breaks a literal reading of the Alg. 5/6
// pseudocode: two dominators each agreeing with the new tuple on a different
// single dimension prune ⊤ and both depth-1 constraints, yet the new tuple
// is a skyline tuple at the depth-2 constraint. All algorithms must find it.
TEST(EquivalenceCornerCase, UnprunedChildOfPrunedParents) {
  Schema schema({{"d1"}, {"d2"}},
                {{"m1", Direction::kLargerIsBetter},
                 {"m2", Direction::kLargerIsBetter}});
  Dataset data{Schema(schema)};
  data.Add(Row{{"a", "y"}, {9, 9}});   // dominator agreeing on d1 only
  data.Add(Row{{"x", "b"}, {8, 8}});   // dominator agreeing on d2 only
  data.Add(Row{{"a", "b"}, {1, 1}});   // new tuple

  Relation oracle_rel(data.schema());
  BruteForceDiscoverer oracle(&oracle_rel, {});
  auto expected = RunStream(&oracle_rel, &oracle, data);
  // The last arrival must be a skyline tuple at <a, b> in every subspace
  // (its context holds only itself).
  ASSERT_EQ(expected.back().size(), 3u);
  for (const auto& f : expected.back()) {
    EXPECT_EQ(f.constraint.bound_mask(), 0b11u);
  }

  for (const std::string& name : AllAlgorithms()) {
    if (name.rfind("FS", 0) == 0) continue;  // covered by the main suite
    SCOPED_TRACE(name);
    Relation rel(data.schema());
    auto disc_or = DiscoveryEngine::CreateDiscoverer(name, &rel, {}, "");
    ASSERT_TRUE(disc_or.ok());
    auto disc = std::move(disc_or).value();
    auto actual = RunStream(&rel, disc.get(), data);
    EXPECT_EQ(expected, actual) << name;
  }
}

}  // namespace
}  // namespace sitfact
