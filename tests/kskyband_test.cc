// Tests for the incremental k-skyband discoverer (core/kskyband.h): the
// agreement-mask zeta transform against quadratic oracles, the k=1 /
// skyline-fact correspondence, and the d̂ / m̂ truncation. The dominator
// counting oracle itself is pinned to the skyline oracle by
// KSkyband.K1IsTheSkyline.

#include "core/kskyband.h"

#include <algorithm>
#include <set>
#include <vector>

#include "core/engine.h"
#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::CountDominators;
using testing_util::KSkyband;
using testing_util::PaperTableI;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

using FactKey = std::pair<std::pair<DimMask, MeasureMask>, uint32_t>;

/// Streams `data`, returning each arrival's facts as (mask, subspace) ->
/// dominator count, verified against a per-(C, M) quadratic recount.
void VerifyStreamAgainstOracle(const Dataset& data, int k, int dhat,
                               int mhat) {
  Relation r(data.schema());
  KSkybandDiscoverer::Options options;
  options.k = k;
  options.max_bound_dims = dhat;
  options.max_measure_dims = mhat;
  KSkybandDiscoverer disc(&r, options);

  const int resolved_dhat =
      dhat < 0 ? data.schema().num_dimensions() : dhat;
  SubspaceUniverse universe(data.schema().num_measures(),
                            mhat < 0 ? data.schema().num_measures() : mhat);

  std::vector<KSkybandFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = r.Append(row);
    facts.clear();
    disc.Discover(t, &facts);

    // Oracle: for every admissible (C, M), count dominators directly.
    std::set<std::pair<DimMask, MeasureMask>> reported;
    for (const auto& f : facts) {
      reported.insert({f.fact.constraint.bound_mask(), f.fact.subspace});
    }
    DimMask full = FullMask(r.schema().num_dimensions());
    for (DimMask mask = 0; mask <= full; ++mask) {
      if (PopCount(mask) > resolved_dhat) continue;
      Constraint c = Constraint::ForTuple(r, t, mask);
      std::vector<TupleId> context = SelectContext(r, c, r.size());
      for (MeasureMask m : universe.masks()) {
        uint64_t dominators = CountDominators(r, t, context, m);
        bool expected = dominators < static_cast<uint64_t>(k);
        bool actual = reported.count({mask, m}) > 0;
        ASSERT_EQ(expected, actual)
            << "t=" << t << " mask=" << mask << " m=" << m
            << " dominators=" << dominators;
        ASSERT_EQ(disc.LastDominatorCount(mask, m), dominators)
            << "t=" << t << " mask=" << mask << " m=" << m;
        ASSERT_EQ(disc.LastContextSize(mask), context.size())
            << "t=" << t << " mask=" << mask;
      }
    }
  }
}

TEST(KSkyband, K1IsTheSkyline) {
  // Ties the dominator-count oracle above to the skyline oracle: with k=1
  // the band is exactly the tuples nothing dominates.
  RandomDataConfig cfg;
  cfg.num_tuples = 150;
  cfg.seed = 9;
  Dataset data = RandomDataset(cfg);
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  std::vector<TupleId> ids(r.size());
  for (TupleId t = 0; t < r.size(); ++t) ids[t] = t;
  EXPECT_EQ(KSkyband(r, ids, 0b11, 1), ComputeSkyline(r, ids, 0b11));
}

TEST(KSkybandDiscoverer, OracleAgreementPaperTableI) {
  VerifyStreamAgainstOracle(PaperTableI(), /*k=*/2, /*dhat=*/-1, /*mhat=*/-1);
}

// gtest names each case by dumping the parameter's bytes, so the padding
// before `seed` is a zeroed member: left implicit it holds whatever the stack
// did, and the case names would change from one test discovery to the next.
struct KParam {
  KParam(int k_in, int dhat_in, int mhat_in, uint64_t seed_in)
      : k(k_in), dhat(dhat_in), mhat(mhat_in), seed(seed_in) {}
  int k;
  int dhat;
  int mhat;
  int32_t padding = 0;
  uint64_t seed;
};
static_assert(sizeof(KParam) == 24, "KParam must have no implicit padding");

class KSkybandSweep : public ::testing::TestWithParam<KParam> {};

TEST_P(KSkybandSweep, OracleAgreementRandom) {
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.num_dims = 3;
  cfg.num_measures = 3;
  cfg.seed = GetParam().seed;
  cfg.mixed_directions = (GetParam().seed % 2 == 0);
  VerifyStreamAgainstOracle(RandomDataset(cfg), GetParam().k,
                            GetParam().dhat, GetParam().mhat);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KSkybandSweep,
    ::testing::Values(KParam{1, -1, -1, 11}, KParam{2, -1, -1, 12},
                      KParam{3, 2, -1, 13}, KParam{2, -1, 2, 14},
                      KParam{4, 1, 1, 15}, KParam{1, 2, 2, 16}));

TEST(KSkybandDiscoverer, K1MatchesSkylineFactDiscovery) {
  // With k=1, a (C, M) fact means zero dominators — exactly the paper's
  // contextual-skyline membership. Cross-check against STopDown.
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.seed = 77;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  Dataset data = RandomDataset(cfg);

  Relation r_band(data.schema());
  KSkybandDiscoverer::Options options;
  options.k = 1;
  KSkybandDiscoverer band(&r_band, options);

  Relation r_sky(data.schema());
  auto sky_or = DiscoveryEngine::CreateDiscoverer("STopDown", &r_sky, {});
  ASSERT_TRUE(sky_or.ok());
  auto sky = std::move(sky_or).value();

  std::vector<KSkybandFact> band_facts;
  std::vector<SkylineFact> sky_facts;
  for (const Row& row : data.rows()) {
    TupleId t1 = r_band.Append(row);
    TupleId t2 = r_sky.Append(row);
    ASSERT_EQ(t1, t2);
    band_facts.clear();
    sky_facts.clear();
    band.Discover(t1, &band_facts);
    sky->Discover(t2, &sky_facts);

    std::set<std::pair<DimMask, MeasureMask>> band_set;
    for (const auto& f : band_facts) {
      EXPECT_EQ(f.dominators, 0u);
      band_set.insert({f.fact.constraint.bound_mask(), f.fact.subspace});
    }
    std::set<std::pair<DimMask, MeasureMask>> sky_set;
    for (const auto& f : sky_facts) {
      sky_set.insert({f.constraint.bound_mask(), f.subspace});
    }
    ASSERT_EQ(band_set, sky_set) << "tuple " << t1;
  }
}

TEST(KSkybandDiscoverer, LargerKIsSuperset) {
  RandomDataConfig cfg;
  cfg.num_tuples = 40;
  cfg.seed = 5;
  Dataset data = RandomDataset(cfg);

  Relation r1(data.schema());
  Relation r3(data.schema());
  KSkybandDiscoverer::Options o1;
  o1.k = 1;
  KSkybandDiscoverer::Options o3;
  o3.k = 3;
  KSkybandDiscoverer d1(&r1, o1);
  KSkybandDiscoverer d3(&r3, o3);

  std::vector<KSkybandFact> f1, f3;
  for (const Row& row : data.rows()) {
    TupleId t = r1.Append(row);
    r3.Append(row);
    f1.clear();
    f3.clear();
    d1.Discover(t, &f1);
    d3.Discover(t, &f3);
    ASSERT_GE(f3.size(), f1.size());
    std::set<std::pair<DimMask, MeasureMask>> set3;
    for (const auto& f : f3) {
      set3.insert({f.fact.constraint.bound_mask(), f.fact.subspace});
    }
    for (const auto& f : f1) {
      ASSERT_TRUE(
          set3.count({f.fact.constraint.bound_mask(), f.fact.subspace}))
          << "k=1 fact missing from k=3 at tuple " << t;
    }
  }
}

TEST(KSkybandDiscoverer, SkipsDeletedHistory) {
  Dataset data = PaperTableI();
  Relation r(data.schema());
  for (size_t i = 0; i + 1 < data.rows().size(); ++i) {
    r.Append(data.rows()[i]);
  }
  // Tombstone t6 (Strickland, the only tuple dominating t7 in full space
  // among its month=Feb contexts... actually t3 and t6 dominate t7 in M).
  r.MarkDeleted(5);
  TupleId t7 = r.Append(data.rows().back());

  KSkybandDiscoverer::Options options;
  options.k = 1;
  KSkybandDiscoverer disc(&r, options);
  std::vector<KSkybandFact> facts;
  disc.Discover(t7, &facts);

  // season=1995-96 context: with t6 deleted, t7 is alone there, hence a
  // zero-dominator fact on the full measure space must exist.
  bool found = false;
  for (const auto& f : facts) {
    if (f.fact.subspace == 0b111 &&
        f.fact.constraint.ToPredicateString(r) == "season=1995-96") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KSkybandDiscoverer, StatsAccumulate) {
  Dataset data = PaperTableI();
  Relation r(data.schema());
  KSkybandDiscoverer disc(&r, {});
  std::vector<KSkybandFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = r.Append(row);
    disc.Discover(t, &facts);
  }
  EXPECT_EQ(disc.stats().arrivals, data.rows().size());
  // Each arrival compares against all previous tuples once.
  EXPECT_EQ(disc.stats().comparisons,
            data.rows().size() * (data.rows().size() - 1) / 2);
}

TEST(KSkybandDiscoverer, RejectsZeroK) {
  Dataset data = PaperTableI();
  Relation r(data.schema());
  KSkybandDiscoverer::Options options;
  options.k = 0;
  EXPECT_DEATH(KSkybandDiscoverer(&r, options), "k >= 1");
}

}  // namespace
}  // namespace sitfact
