#ifndef SITFACT_TESTS_TEST_UTIL_H_
#define SITFACT_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "core/discoverer.h"
#include "core/fact.h"
#include "lattice/constraint_enumerator.h"
#include "relation/dataset.h"
#include "relation/relation.h"
#include "skyline/skyline_compute.h"
#include "storage/mu_store.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace testing_util {

/// Table IV, the paper's running example: D = {d1, d2, d3},
/// M = {m1, m2}, tuples t1..t5 (TupleIds 0..4).
inline Dataset PaperTableIV() {
  Schema schema({{"d1"}, {"d2"}, {"d3"}},
                {{"m1", Direction::kLargerIsBetter},
                 {"m2", Direction::kLargerIsBetter}});
  Dataset d(std::move(schema));
  d.Add(Row{{"a1", "b2", "c2"}, {10, 15}});  // t1
  d.Add(Row{{"a1", "b1", "c1"}, {15, 10}});  // t2
  d.Add(Row{{"a2", "b1", "c2"}, {17, 17}});  // t3
  d.Add(Row{{"a2", "b1", "c1"}, {20, 20}});  // t4
  d.Add(Row{{"a1", "b1", "c1"}, {11, 15}});  // t5
  return d;
}

/// Table I, the mini-world of basketball gamelogs. Dimension space is the
/// one Example 1 uses: {player, month, season, team, opp_team} (day is
/// displayed in the table but not a dimension attribute); measures
/// {points, assists, rebounds}, all larger-is-better.
inline Dataset PaperTableI() {
  Schema schema({{"player"}, {"month"}, {"season"}, {"team"}, {"opp_team"}},
                {{"points", Direction::kLargerIsBetter},
                 {"assists", Direction::kLargerIsBetter},
                 {"rebounds", Direction::kLargerIsBetter}});
  Dataset d(std::move(schema));
  d.Add(Row{{"Bogues", "Feb", "1991-92", "Hornets", "Hawks"}, {4, 12, 5}});
  d.Add(Row{{"Seikaly", "Feb", "1991-92", "Heat", "Hawks"}, {24, 5, 15}});
  d.Add(Row{{"Sherman", "Dec", "1993-94", "Celtics", "Nets"}, {13, 13, 5}});
  d.Add(Row{{"Wesley", "Feb", "1994-95", "Celtics", "Nets"}, {2, 5, 2}});
  d.Add(
      Row{{"Wesley", "Feb", "1994-95", "Celtics", "Timberwolves"}, {3, 5, 3}});
  d.Add(Row{{"Strickland", "Jan", "1995-96", "Blazers", "Celtics"},
            {27, 18, 8}});
  d.Add(Row{{"Wesley", "Feb", "1995-96", "Celtics", "Nets"}, {12, 13, 5}});
  return d;
}

/// Config for randomized equivalence datasets: small cardinalities force
/// heavy value agreement; small integer measures force ties and duplicates.
struct RandomDataConfig {
  int num_tuples = 100;
  int num_dims = 3;
  int num_measures = 2;
  int dim_cardinality = 3;
  int measure_levels = 6;       // values drawn from [0, measure_levels)
  double duplicate_prob = 0.1;  // chance of replaying a previous row verbatim
  bool mixed_directions = false;
  uint64_t seed = 1;
};

inline Dataset RandomDataset(const RandomDataConfig& cfg) {
  std::vector<DimensionAttribute> dims;
  for (int i = 0; i < cfg.num_dims; ++i) {
    dims.push_back({"d" + std::to_string(i)});
  }
  std::vector<MeasureAttribute> meas;
  for (int j = 0; j < cfg.num_measures; ++j) {
    Direction dir = (cfg.mixed_directions && j % 2 == 1)
                        ? Direction::kSmallerIsBetter
                        : Direction::kLargerIsBetter;
    meas.push_back({"m" + std::to_string(j), dir});
  }
  Dataset out(Schema(std::move(dims), std::move(meas)));
  Rng rng(cfg.seed);
  for (int i = 0; i < cfg.num_tuples; ++i) {
    if (i > 0 && rng.NextBool(cfg.duplicate_prob)) {
      out.Add(out.rows()[rng.NextBounded(out.rows().size())]);
      continue;
    }
    Row row;
    for (int d = 0; d < cfg.num_dims; ++d) {
      row.dimensions.push_back(
          "v" + std::to_string(rng.NextBounded(cfg.dim_cardinality)));
    }
    for (int j = 0; j < cfg.num_measures; ++j) {
      row.measures.push_back(
          static_cast<double>(rng.NextBounded(cfg.measure_levels)));
    }
    out.Add(std::move(row));
  }
  return out;
}

/// Streams `dataset` through `discoverer`, returning per-arrival canonical
/// fact sets. `relation` must be the (initially empty) relation the
/// discoverer was built on.
inline std::vector<std::vector<SkylineFact>> RunStream(
    Relation* relation, Discoverer* discoverer, const Dataset& dataset) {
  std::vector<std::vector<SkylineFact>> out;
  for (const Row& row : dataset.rows()) {
    TupleId t = relation->Append(row);
    std::vector<SkylineFact> facts;
    discoverer->Discover(t, &facts);
    CanonicalizeFacts(&facts);
    out.push_back(std::move(facts));
  }
  return out;
}

/// Human-readable diff context for fact-set mismatches.
inline std::string DescribeFacts(const Relation& r,
                                 const std::vector<SkylineFact>& facts) {
  std::string out;
  for (const auto& f : facts) {
    out += "  " + FactToString(r, f) + "\n";
  }
  return out;
}

/// Checks Invariant 1: every µ bucket equals the recomputed contextual
/// skyline, for every constraint derivable from any tuple.
inline void VerifyInvariant1(const Relation& r, MuStore* store, int max_bound,
                             const SubspaceUniverse& universe) {
  DimMask full = FullMask(r.schema().num_dimensions());
  for (TupleId t = 0; t < r.size(); ++t) {
    for (DimMask mask = 0; mask <= full; ++mask) {
      if (PopCount(mask) > max_bound) continue;
      Constraint c = Constraint::ForTuple(r, t, mask);
      MuStore::Context* ctx = store->Find(c);
      for (MeasureMask m : universe.masks()) {
        std::vector<TupleId> expected =
            ComputeContextualSkyline(r, c, m, r.size());
        std::vector<TupleId> actual;
        if (ctx != nullptr) ctx->Read(m, &actual);
        std::sort(expected.begin(), expected.end());
        std::sort(actual.begin(), actual.end());
        ASSERT_EQ(expected, actual)
            << "Invariant 1 violated at " << c.ToString(r) << " x "
            << SubspaceToString(r.schema(), m);
      }
    }
  }
}

/// Checks Invariant 2: a tuple is stored at (C, M) iff C is one of its
/// maximal skyline constraints in M.
inline void VerifyInvariant2(const Relation& r, MuStore* store, int max_bound,
                             const SubspaceUniverse& universe) {
  DimMask full = FullMask(r.schema().num_dimensions());
  for (TupleId t = 0; t < r.size(); ++t) {
    for (MeasureMask m : universe.masks()) {
      std::vector<DimMask> msc =
          ComputeMaximalSkylineConstraintMasks(r, t, m, max_bound, r.size());
      std::sort(msc.begin(), msc.end());
      for (DimMask mask = 0; mask <= full; ++mask) {
        if (PopCount(mask) > max_bound) continue;
        Constraint c = Constraint::ForTuple(r, t, mask);
        MuStore::Context* ctx = store->Find(c);
        bool stored = ctx != nullptr && ctx->Contains(m, t);
        bool expected = std::binary_search(msc.begin(), msc.end(), mask);
        ASSERT_EQ(expected, stored)
            << "Invariant 2 violated for tuple " << t << " at "
            << c.ToString(r) << " x " << SubspaceToString(r.schema(), m)
            << " (expected stored=" << expected << ")";
      }
    }
  }
}

}  // namespace testing_util
}  // namespace sitfact

#endif  // SITFACT_TESTS_TEST_UTIL_H_
