// Tests for the Compressed SkyCube substrate: the minimum-subspace storage
// invariant, the containment property its queries rely on, and equivalence
// of its query results with from-scratch skylines.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "csc/compressed_skycube.h"
#include "lattice/subspace_universe.h"
#include "skyline/dominance.h"
#include "skyline/skyline_compute.h"
#include "test_util.h"

namespace sitfact {
namespace {

using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// Reference: the minimum subspaces of tuple `t` among `members`, computed
/// from scratch — subspaces where t is a skyline tuple while no proper
/// subspace has it in the skyline.
std::vector<MeasureMask> NaiveMinimumSubspaces(
    const Relation& r, TupleId t, const std::vector<TupleId>& members,
    const SubspaceUniverse& universe) {
  auto in_skyline = [&](MeasureMask m) {
    for (TupleId other : members) {
      if (other != t && Dominates(r, other, t, m)) return false;
    }
    return true;
  };
  std::vector<MeasureMask> out;
  for (MeasureMask m : universe.masks()) {
    if (!in_skyline(m)) continue;
    bool minimal = true;
    ForEachProperSubset(m, [&](MeasureMask sub) {
      if (sub != 0 && minimal && universe.IndexOf(sub) >= 0 &&
          in_skyline(sub)) {
        minimal = false;
      }
    });
    if (minimal) out.push_back(m);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Streams a dataset through one cube and its SubspaceIndex the way
/// CcscDiscoverer drives a context: index first, then the cube.
class CscTest : public ::testing::Test {
 protected:
  void Stream(const Dataset& data, int max_measure_dims = -1) {
    relation_ = std::make_unique<Relation>(data.schema());
    int mm = max_measure_dims < 0 ? data.schema().num_measures()
                                  : max_measure_dims;
    universe_ =
        std::make_unique<SubspaceUniverse>(data.schema().num_measures(), mm);
    index_ = std::make_unique<SubspaceIndex>(relation_.get());
    cube_ = std::make_unique<CompressedSkycube>(universe_.get(), index_.get());
    uint64_t comparisons = 0;
    for (const Row& row : data.rows()) {
      TupleId t = relation_->Append(row);
      members_.push_back(t);
      index_->Insert(t);
      memo_.BeginArrival(*relation_, t);
      std::vector<MeasureMask> sky;
      cube_->Insert(*relation_, t, &sky, &comparisons, &memo_);
      last_sky_ = std::move(sky);
    }
  }

  std::unique_ptr<Relation> relation_;
  std::unique_ptr<SubspaceUniverse> universe_;
  std::unique_ptr<SubspaceIndex> index_;
  std::unique_ptr<CompressedSkycube> cube_;
  PartitionMemo memo_;
  std::vector<TupleId> members_;
  std::vector<MeasureMask> last_sky_;
};

TEST_F(CscTest, StoresTuplesExactlyAtMinimumSubspaces) {
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.num_measures = 3;
  cfg.measure_levels = 5;
  Stream(RandomDataset(cfg));

  for (TupleId t : members_) {
    std::vector<MeasureMask> expected =
        NaiveMinimumSubspaces(*relation_, t, members_, *universe_);
    std::vector<MeasureMask> actual;
    for (MeasureMask m : universe_->masks()) {
      const auto* bucket = cube_->bucket(m);
      if (bucket != nullptr &&
          std::find(bucket->begin(), bucket->end(), t) != bucket->end()) {
        actual.push_back(m);
      }
    }
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(expected, actual) << "tuple " << t;
  }
}

TEST_F(CscTest, InsertReportsExactSkylineMemberships) {
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.num_measures = 3;
  Stream(RandomDataset(cfg));
  // The last arrival's reported subspaces must match from-scratch skylines.
  TupleId last = members_.back();
  std::vector<MeasureMask> expected;
  for (MeasureMask m : universe_->masks()) {
    bool dominated = false;
    for (TupleId other : members_) {
      if (other != last && Dominates(*relation_, other, last, m)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) expected.push_back(m);
  }
  std::vector<MeasureMask> actual = last_sky_;
  std::sort(actual.begin(), actual.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(expected, actual);
}

TEST_F(CscTest, QuerySkylineMatchesReference) {
  RandomDataConfig cfg;
  cfg.num_tuples = 70;
  cfg.num_measures = 3;
  cfg.mixed_directions = true;
  Stream(RandomDataset(cfg));

  uint64_t comparisons = 0;
  for (MeasureMask m : universe_->masks()) {
    auto got = cube_->QuerySkyline(m, &comparisons);
    auto want = ComputeSkyline(*relation_, members_, m);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "subspace " << m;
  }
  EXPECT_GT(comparisons, 0u);
}

TEST_F(CscTest, ContainmentPropertyHolds) {
  // Theorem behind the CSC: sky(M) ⊆ ∪_{N ⊆ M} CSC[N].
  RandomDataConfig cfg;
  cfg.num_tuples = 60;
  cfg.num_measures = 3;
  cfg.duplicate_prob = 0.3;
  Stream(RandomDataset(cfg));

  for (MeasureMask m : universe_->masks()) {
    std::set<TupleId> stored_below;
    for (MeasureMask n : universe_->masks()) {
      if (!IsSubsetOf(n, m)) continue;
      const auto* bucket = cube_->bucket(n);
      if (bucket != nullptr) {
        stored_below.insert(bucket->begin(), bucket->end());
      }
    }
    for (TupleId t : ComputeSkyline(*relation_, members_, m)) {
      EXPECT_TRUE(stored_below.count(t)) << "tuple " << t << " m=" << m;
    }
  }
}

TEST_F(CscTest, TruncatedUniverseStaysConsistent) {
  RandomDataConfig cfg;
  cfg.num_tuples = 50;
  cfg.num_measures = 4;
  Stream(RandomDataset(cfg), /*max_measure_dims=*/2);
  for (TupleId t : members_) {
    std::vector<MeasureMask> expected =
        NaiveMinimumSubspaces(*relation_, t, members_, *universe_);
    std::vector<MeasureMask> actual;
    for (MeasureMask m : universe_->masks()) {
      const auto* bucket = cube_->bucket(m);
      if (bucket != nullptr &&
          std::find(bucket->begin(), bucket->end(), t) != bucket->end()) {
        actual.push_back(m);
      }
    }
    std::sort(actual.begin(), actual.end());
    ASSERT_EQ(expected, actual);
  }
}

TEST_F(CscTest, DuplicateMeasureVectorsCoexist) {
  Schema s({{"a"}}, {{"m0"}, {"m1"}});
  Dataset d(std::move(s));
  d.Add(Row{{"x"}, {5, 5}});
  d.Add(Row{{"x"}, {5, 5}});
  Stream(d);
  // Both ties are skyline tuples everywhere; both stored at their minimum
  // subspaces (the two singletons).
  for (MeasureMask m : {0b01u, 0b10u}) {
    const auto* bucket = cube_->bucket(m);
    ASSERT_NE(bucket, nullptr);
    EXPECT_EQ(bucket->size(), 2u);
  }
  EXPECT_EQ(cube_->bucket(0b11), nullptr);  // not minimal there
  EXPECT_EQ(cube_->stored_count(), 4u);
}

TEST_F(CscTest, StoredCountAndMemoryTrackDemotions) {
  Schema s({{"a"}}, {{"m0"}});
  Dataset d(std::move(s));
  d.Add(Row{{"x"}, {1}});
  d.Add(Row{{"x"}, {2}});  // demotes the first entirely
  Stream(d);
  const auto* bucket = cube_->bucket(0b1);
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(*bucket, (std::vector<TupleId>{1}));
  EXPECT_EQ(cube_->stored_count(), 1u);
  EXPECT_GT(cube_->ApproxMemoryBytes(), 0u);
}

}  // namespace
}  // namespace sitfact
