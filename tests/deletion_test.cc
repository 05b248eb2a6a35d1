// Tests for the deletion extension (the paper's stated future work):
// tombstoning a tuple and repairing the µ stores must leave every algorithm
// behaving exactly as if the tuple had never arrived — checked against the
// oracle on interleaved append/delete streams and via the storage
// invariants.

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/bottom_up.h"
#include "core/brute_force.h"
#include "core/engine.h"
#include "core/shared_bottom_up.h"
#include "core/shared_top_down.h"
#include "core/top_down.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;
using testing_util::VerifyInvariant1;
using testing_util::VerifyInvariant2;

TEST(Deletion, RelationTombstones) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  EXPECT_EQ(r.live_size(), 5u);
  EXPECT_FALSE(r.IsDeleted(3));
  r.MarkDeleted(3);
  EXPECT_TRUE(r.IsDeleted(3));
  EXPECT_EQ(r.live_size(), 4u);
  r.MarkDeleted(3);  // idempotent
  EXPECT_EQ(r.live_size(), 4u);
  // Data stays readable for repair logic.
  EXPECT_EQ(r.measure(3, 0), 20.0);
}

// Deleting the dataset's global dominator (t4) must resurrect the tuples it
// suppressed, under both storage policies.
TEST(Deletion, RemovingDominatorResurrectsVictims) {
  Dataset data = PaperTableIV();

  Relation r1(data.schema());
  BottomUpDiscoverer bu(&r1, {});
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) bu.Discover(r1.Append(row), &facts);
  r1.MarkDeleted(3);  // t4
  ASSERT_TRUE(bu.Remove(3).ok());
  VerifyInvariant1(r1, bu.mutable_store(), bu.max_bound_dims(),
                   bu.subspaces());

  Relation r2(data.schema());
  TopDownDiscoverer td(&r2, {});
  for (const Row& row : data.rows()) td.Discover(r2.Append(row), &facts);
  r2.MarkDeleted(3);
  ASSERT_TRUE(td.Remove(3).ok());
  VerifyInvariant2(r2, td.mutable_store(), td.max_bound_dims(),
                   td.subspaces());

  // Concretely: with t4 gone, t3 (17,17) rules ⊤ in the full space.
  Constraint top = Constraint::Top(3);
  MuStore::Context* ctx = bu.mutable_store()->Find(top);
  ASSERT_NE(ctx, nullptr);
  std::vector<TupleId> bucket;
  ctx->Read(0b11, &bucket);
  EXPECT_EQ(bucket, (std::vector<TupleId>{2}));
}

TEST(Deletion, RequiresTombstoneFirstAndValidId) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  BottomUpDiscoverer bu(&r, {});
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) bu.Discover(r.Append(row), &facts);
  EXPECT_FALSE(bu.Remove(3).ok());    // not tombstoned yet
  EXPECT_FALSE(bu.Remove(999).ok());  // out of range
}

struct DeletionCase {
  std::string label;
  std::string algorithm;
  RandomDataConfig data;
  DiscoveryOptions options;
};

// Print the label, not gtest's default byte dump: the dump holds the string's
// heap address, which would make the test's name differ from run to run.
std::ostream& operator<<(std::ostream& os, const DeletionCase& c) {
  return os << c.label;
}

class DeletionEquivalenceTest : public ::testing::TestWithParam<DeletionCase> {
};

// Interleaved append/delete stream: after every operation the algorithm's
// next discovery results must match a BruteForce oracle running against an
// identically mutated relation.
TEST_P(DeletionEquivalenceTest, MatchesOracleUnderChurn) {
  const DeletionCase& param = GetParam();
  Dataset data = RandomDataset(param.data);

  Relation oracle_rel(data.schema());
  BruteForceDiscoverer oracle(&oracle_rel, param.options);
  Relation rel(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer(param.algorithm, &rel,
                                                   param.options);
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
  ASSERT_TRUE(disc->SupportsRemoval());

  Rng rng(param.data.seed ^ 0xDEAD);
  std::vector<TupleId> live;
  std::vector<SkylineFact> expected, actual;
  for (size_t i = 0; i < data.rows().size(); ++i) {
    TupleId a = oracle_rel.Append(data.rows()[i]);
    TupleId b = rel.Append(data.rows()[i]);
    ASSERT_EQ(a, b);
    expected.clear();
    actual.clear();
    oracle.Discover(a, &expected);
    disc->Discover(b, &actual);
    CanonicalizeFacts(&expected);
    CanonicalizeFacts(&actual);
    ASSERT_EQ(expected, actual) << param.algorithm << " at arrival " << i;
    live.push_back(a);

    // Every third arrival, delete a random live tuple from both worlds.
    if (i % 3 == 2 && !live.empty()) {
      size_t idx = rng.NextBounded(live.size());
      TupleId victim = live[idx];
      live.erase(live.begin() + idx);
      oracle_rel.MarkDeleted(victim);
      ASSERT_TRUE(oracle.Remove(victim).ok());
      rel.MarkDeleted(victim);
      ASSERT_TRUE(disc->Remove(victim).ok())
          << param.algorithm << " remove at arrival " << i;
    }
  }
}

std::vector<DeletionCase> DeletionCases() {
  std::vector<DeletionCase> cases;
  RandomDataConfig base;
  base.num_tuples = 60;
  base.num_dims = 3;
  base.num_measures = 2;
  int seed = 555;
  for (const char* algo : {"BaselineSeq", "BaselineIdx", "C-CSC", "BottomUp",
                           "TopDown", "SBottomUp", "STopDown"}) {
    DeletionCase c;
    c.label = std::string(algo);
    std::erase(c.label, '-');  // gtest param names must be alphanumeric
    c.algorithm = algo;
    c.data = base;
    c.data.seed = seed++;
    cases.push_back(c);
  }
  // Truncated spaces exercise the full-space maintenance of the S-variants.
  DeletionCase trunc;
  trunc.label = "STopDown_truncated";
  trunc.algorithm = "STopDown";
  trunc.data = base;
  trunc.data.num_measures = 3;
  trunc.data.seed = seed++;
  trunc.options = {.max_bound_dims = 2, .max_measure_dims = 2};
  cases.push_back(trunc);
  DeletionCase trunc2 = trunc;
  trunc2.label = "SBottomUp_truncated";
  trunc2.algorithm = "SBottomUp";
  trunc2.data.seed = seed++;
  cases.push_back(trunc2);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Churn, DeletionEquivalenceTest, ::testing::ValuesIn(DeletionCases()),
    [](const ::testing::TestParamInfo<DeletionCase>& info) {
      return info.param.label;
    });

TEST(Deletion, EngineRemoveUpdatesProminence) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  auto disc = DiscoveryEngine::CreateDiscoverer("BottomUp", &r, {});
  ASSERT_TRUE(disc.ok());
  DiscoveryEngine engine(&r, std::move(disc).value(), {});
  for (const Row& row : data.rows()) engine.Append(row);

  Constraint top = Constraint::Top(3);
  EXPECT_EQ(engine.counter().Count(top), 5u);
  ASSERT_TRUE(engine.Remove(3).ok());
  EXPECT_EQ(engine.counter().Count(top), 4u);
  EXPECT_FALSE(engine.Remove(3).ok());  // already gone

  // A fresh arrival after the deletion ranks against the shrunk context.
  ArrivalReport report = engine.Append(Row{{"a9", "b9", "c9"}, {50, 50}});
  ASSERT_FALSE(report.ranked.empty());
  // ⊤ now holds 5 live tuples (4 old + the new one).
  for (const auto& f : report.ranked) {
    if (f.fact.constraint == top) {
      EXPECT_EQ(f.context_size, 5u);
    }
  }
}

// Third-party discoverers inherit the base class's "no removal" default;
// the engine must refuse them without side effects. (Every built-in
// algorithm now supports removal — C-CSC gained it with the SubspaceIndex
// rebuild — so this exercises the default path directly.)
class NoRemovalDiscoverer : public Discoverer {
 public:
  NoRemovalDiscoverer(const Relation* r, const DiscoveryOptions& o)
      : Discoverer(r, o) {}
  std::string_view name() const override { return "NoRemoval"; }
  void Discover(TupleId, std::vector<SkylineFact>*) override {}
  size_t ApproxMemoryBytes() const override { return 0; }
};

TEST(Deletion, UnsupportedDiscovererReportsUnimplemented) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  auto disc = std::make_unique<NoRemovalDiscoverer>(&r, DiscoveryOptions{});
  EXPECT_FALSE(disc->SupportsRemoval());
  DiscoveryEngine::Config config;
  config.rank_facts = false;
  DiscoveryEngine engine(&r, std::move(disc), config);
  engine.Append(data.rows()[0]);
  Status s = engine.Remove(0);
  EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(r.IsDeleted(0));  // no side effects on failure
}

// C-CSC's removal path requires the caller to tombstone first, like every
// other algorithm, and repairs its per-context skycubes so a post-deletion
// arrival discovers exactly what BruteForce does on the same mutated
// relation.
TEST(Deletion, CcscRemoveRepairsSkycubes) {
  Dataset data = PaperTableIV();

  Relation r(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("C-CSC", &r, {});
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
  ASSERT_TRUE(disc->SupportsRemoval());
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) disc->Discover(r.Append(row), &facts);

  EXPECT_FALSE(disc->Remove(3).ok());    // not tombstoned yet
  EXPECT_FALSE(disc->Remove(999).ok());  // out of range
  r.MarkDeleted(3);                      // t4, the global dominator
  ASSERT_TRUE(disc->Remove(3).ok());

  Relation oracle_rel(data.schema());
  BruteForceDiscoverer oracle(&oracle_rel, {});
  for (const Row& row : data.rows()) {
    oracle.Discover(oracle_rel.Append(row), &facts);
  }
  oracle_rel.MarkDeleted(3);
  ASSERT_TRUE(oracle.Remove(3).ok());

  // The next arrival must agree fact-for-fact with the oracle.
  Row next{{"a1", "b2", "c1"}, {16, 18}};
  std::vector<SkylineFact> actual, expected;
  disc->Discover(r.Append(next), &actual);
  oracle.Discover(oracle_rel.Append(next), &expected);
  CanonicalizeFacts(&actual);
  CanonicalizeFacts(&expected);
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace sitfact
