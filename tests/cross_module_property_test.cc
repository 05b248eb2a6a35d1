// Cross-module property tests: laws that tie the new modules (query, io,
// kskyband) back to the core definitions, on randomized inputs.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/kskyband.h"
#include "io/snapshot.h"
#include "lattice/constraint.h"
#include "query/skyline_query.h"
#include "skyline/skyline_compute.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

using testing_util::KSkyband;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

class SeededProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Dataset MakeData(int n = 80) {
    RandomDataConfig cfg;
    cfg.seed = GetParam();
    cfg.num_tuples = n;
    cfg.num_dims = 3;
    cfg.num_measures = 3;
    cfg.mixed_directions = (GetParam() % 2 == 0);
    return RandomDataset(cfg);
  }

  static Relation Load(const Dataset& d) {
    Relation r(d.schema());
    for (const Row& row : d.rows()) r.Append(row);
    return r;
  }

  static std::vector<TupleId> AllIds(const Relation& r) {
    std::vector<TupleId> ids(r.size());
    for (TupleId t = 0; t < r.size(); ++t) ids[t] = t;
    return ids;
  }
};

TEST_P(SeededProperty, SkylineIsIdempotent) {
  // λ_M(λ_M(S)) = λ_M(S): re-running the skyline on its own output changes
  // nothing. The second run sees only the first run's skyline because every
  // other tuple is deleted in between.
  Dataset data = MakeData();
  for (MeasureMask m = 1; m < 8; ++m) {
    Relation r = Load(data);
    const Constraint top = Constraint::Top(r.schema().num_dimensions());
    auto once = EvaluateContextualSkyline(r, top, m);
    for (TupleId t = 0; t < r.size(); ++t) {
      if (!std::binary_search(once.skyline.begin(), once.skyline.end(), t)) {
        r.MarkDeleted(t);
      }
    }
    auto twice = EvaluateContextualSkyline(r, top, m);
    ASSERT_EQ(once.skyline, twice.skyline) << "m=" << m;
  }
}

TEST_P(SeededProperty, SkybandLadderIsMonotone) {
  // skyline = 1-skyband ⊆ 2-skyband ⊆ ... and the whole candidate set is
  // reached once k exceeds the max dominator count.
  Dataset data = MakeData();
  Relation r = Load(data);
  std::vector<TupleId> ids = AllIds(r);
  std::vector<TupleId> prev;
  for (int k = 1; k <= 8; ++k) {
    std::vector<TupleId> band = KSkyband(r, ids, 0b111, k);
    ASSERT_TRUE(std::includes(band.begin(), band.end(), prev.begin(),
                              prev.end()))
        << "k=" << k;
    prev = std::move(band);
  }
  std::vector<TupleId> all =
      KSkyband(r, ids, 0b111, static_cast<int>(ids.size()));
  EXPECT_EQ(all, ids);
}

TEST_P(SeededProperty, SubspaceSkylineNotSmallerOnProjection) {
  // Adding measures can only grow the skyline-or-keep: every skyline tuple
  // of M stays in the skyline of any superset M' ⊇ M? That is FALSE in
  // general (anti-monotonicity, Sec. IV) — assert the documented
  // counter-law instead: membership is NOT monotone, but the skyline of a
  // single measure {j} is exactly the arg-max set of that measure.
  Dataset data = MakeData();
  Relation r = Load(data);
  std::vector<TupleId> ids = AllIds(r);
  const Constraint top = Constraint::Top(r.schema().num_dimensions());
  for (int j = 0; j < 3; ++j) {
    MeasureMask m = MeasureMask{1} << j;
    auto result = EvaluateContextualSkyline(r, top, m);
    double best = r.measure_key(ids[0], j);
    for (TupleId t : ids) best = std::max(best, r.measure_key(t, j));
    for (TupleId t : ids) {
      bool in_sky = std::binary_search(result.skyline.begin(),
                                       result.skyline.end(), t);
      ASSERT_EQ(in_sky, r.measure_key(t, j) == best) << "j=" << j;
    }
  }
}

TEST_P(SeededProperty, KSkybandContextSizesMatchCounter) {
  // The zeta-transformed context sizes must equal a direct σ_C(R) count
  // for every constraint in the last tuple's lattice.
  Dataset data = MakeData(40);
  Relation r(data.schema());
  KSkybandDiscoverer disc(&r, {});
  std::vector<KSkybandFact> facts;
  for (const Row& row : data.rows()) {
    TupleId t = r.Append(row);
    facts.clear();
    disc.Discover(t, &facts);
  }
  TupleId last = r.size() - 1;
  DimMask full = FullMask(r.schema().num_dimensions());
  for (DimMask mask = 0; mask <= full; ++mask) {
    Constraint c = Constraint::ForTuple(r, last, mask);
    EXPECT_EQ(disc.LastContextSize(mask),
              SelectContext(r, c, r.size()).size())
        << "mask=" << mask;
  }
}

TEST_P(SeededProperty, ConstraintSerializationRoundTrip) {
  // FromBoundValues(bound_mask, values-in-bit-order) inverts the accessor
  // view of any reachable constraint.
  Dataset data = MakeData(20);
  Relation r = Load(data);
  const int nd = r.schema().num_dimensions();
  for (TupleId t = 0; t < r.size(); ++t) {
    for (DimMask mask = 0; mask <= FullMask(nd); ++mask) {
      Constraint original = Constraint::ForTuple(r, t, mask);
      std::vector<ValueId> values;
      ForEachBit(original.bound_mask(),
                 [&](int d) { values.push_back(original.value(d)); });
      Constraint rebuilt =
          Constraint::FromBoundValues(nd, original.bound_mask(), values);
      ASSERT_EQ(original, rebuilt);
      ASSERT_EQ(original.Hash(), rebuilt.Hash());
    }
  }
}

TEST_P(SeededProperty, RelationSnapshotRoundTripsWithChurn) {
  // Random relation + random tombstones survive a save/load cycle with
  // identical encodings and measure keys.
  Dataset data = MakeData(60);
  Relation original = Load(data);
  Rng rng(GetParam());
  for (int i = 0; i < 10; ++i) {
    original.MarkDeleted(
        static_cast<TupleId>(rng.NextBounded(original.size())));
  }

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sitfact_prop_snap_" + std::to_string(::getpid()) + "_" +
        std::to_string(GetParam()) + ".snap"))
          .string();
  ASSERT_TRUE(SaveRelationSnapshot(original, path).ok());
  auto loaded_or = LoadRelationSnapshot(path);
  std::error_code ec;
  std::filesystem::remove(path, ec);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const Relation& loaded = *loaded_or.value();

  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.live_size(), original.live_size());
  for (TupleId t = 0; t < loaded.size(); ++t) {
    ASSERT_EQ(loaded.IsDeleted(t), original.IsDeleted(t));
    ASSERT_EQ(loaded.AgreeMask(t, loaded.size() - 1),
              original.AgreeMask(t, original.size() - 1));
    for (int j = 0; j < loaded.schema().num_measures(); ++j) {
      ASSERT_EQ(loaded.measure_key(t, j), original.measure_key(t, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(101, 202, 303, 404));

TEST(Crc32Laws, ExtendComposesLikeConcatenation) {
  const std::string a = "prominent ";
  const std::string b = "situational facts";
  const std::string ab = a + b;
  uint32_t incremental = Crc32::Extend(Crc32::Of(a.data(), a.size()),
                                       b.data(), b.size());
  EXPECT_EQ(incremental, Crc32::Of(ab.data(), ab.size()));
}

TEST(Crc32Laws, SensitiveToEveryBytePosition) {
  std::string base(64, 'q');
  const uint32_t reference = Crc32::Of(base.data(), base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32::Of(mutated.data(), mutated.size()), reference)
        << "byte " << i;
  }
}

}  // namespace
}  // namespace sitfact
