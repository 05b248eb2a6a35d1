// Differential tests for skyline/skyband_index.h. Every maintenance path is
// diffed against a brute-force ForEachBucket rescan after each mutation
// (memory, file, and segmented stores), engines' ranked reports are diffed
// against an index-free ProminenceEvaluator reading the same store, and the
// sharded engine hammers OnBucketChanged from pool threads (the
// SkybandIndex TSan target).

#include "skyline/skyband_index.h"

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/prominence.h"
#include "exec/sharded_engine.h"
#include "storage/file_mu_store.h"
#include "storage/memory_mu_store.h"
#include "storage/segmented_mu_store.h"
#include "test_util.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

namespace fs = std::filesystem;
using testing_util::PaperTableIV;
using testing_util::RandomDataConfig;
using testing_util::RandomDataset;

/// Brute-force oracle: the index must mirror exactly the store's non-empty
/// buckets. Band sizes and gauges are read directly; member identity shows
/// through the Invariant-2 union probe, which filters and deduplicates
/// members and is diffed against the same union computed from the dump.
void ExpectMatchesRescan(const SkybandIndex& index, MuStore& store,
                         const Relation& r) {
  std::unordered_map<Constraint, std::map<MeasureMask, std::vector<TupleId>>,
                     ConstraintHash>
      dump;
  size_t dumped_buckets = 0;
  size_t dumped_members = 0;
  store.ForEachBucket([&](const Constraint& c, MeasureMask m,
                          const std::vector<TupleId>& bucket) {
    dump[c][m] = bucket;
    ++dumped_buckets;
    dumped_members += bucket.size();
  });

  for (const auto& [c, buckets] : dump) {
    for (const auto& [m, bucket] : buckets) {
      EXPECT_EQ(index.SkylineSize(c, m), bucket.size());
      std::set<TupleId> in_union;
      ForEachSubset(c.bound_mask(), [&](DimMask sub) {
        auto family = dump.find(c.Restrict(sub));
        if (family == dump.end()) return;
        auto band = family->second.find(m);
        if (band == family->second.end()) return;
        for (TupleId t : band->second) {
          if (sub == c.bound_mask() || c.SatisfiedBy(r, t)) {
            in_union.insert(t);
          }
        }
      });
      EXPECT_EQ(index.UnionSkylineSize(r, c, m), in_union.size());
    }
  }

  const SkybandIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.families, dump.size());
  EXPECT_EQ(stats.bands, dumped_buckets) << "index holds stale bands";
  EXPECT_EQ(stats.members, dumped_members);
}

RandomDataConfig SmallConfig(int n, uint64_t seed) {
  RandomDataConfig cfg;
  cfg.num_tuples = n;
  cfg.seed = seed;
  cfg.num_dims = 3;
  cfg.num_measures = 2;
  return cfg;
}

TEST(SkybandIndexMemory, ObserverTracksEveryDiscoveryMutation) {
  Dataset data = RandomDataset(SmallConfig(40, 7));
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("SBottomUp", &relation, {});
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();

  SkybandIndex index;
  index.Attach(disc->mutable_store(), disc->storage_policy());
  EXPECT_TRUE(index.attached());
  EXPECT_TRUE(index.live());

  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc->Discover(relation.Append(row), &facts);
    ExpectMatchesRescan(index, *disc->mutable_store(), relation);
  }
  EXPECT_GT(index.stats().notifications, 0u);

  // Removals repair many buckets; the shadow follows each repair.
  for (TupleId t : {TupleId{3}, TupleId{17}, TupleId{0}}) {
    relation.MarkDeleted(t);
    ASSERT_TRUE(disc->Remove(t).ok());
    ExpectMatchesRescan(index, *disc->mutable_store(), relation);
  }

  // One observer slot per store: release it, then a late Attach to the
  // already-populated store must prime itself from ForEachBucket.
  index.Detach();
  EXPECT_FALSE(index.attached());
  SkybandIndex late;
  late.Attach(disc->mutable_store(), disc->storage_policy());
  ExpectMatchesRescan(late, *disc->mutable_store(), relation);
}

TEST(SkybandIndexFile, NonNotifyingStoreNeedsRebuild) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  const std::string dir =
      (fs::temp_directory_path() / "sitfact_skyband_file_test").string();
  fs::remove_all(dir);
  FileMuStore store(dir);
  ASSERT_FALSE(store.NotifiesObservers());

  auto C = [&](DimMask mask) { return Constraint::ForTuple(r, 4, mask); };
  store.GetOrCreate(C(0b001))->Write(0b01, {0, 1});
  store.GetOrCreate(C(0b011))->Write(0b11, {2, 3});

  SkybandIndex index;
  index.Attach(&store, StoragePolicy::kAllSkylineConstraints);
  EXPECT_TRUE(index.attached());
  EXPECT_FALSE(index.live());  // file stores never notify
  ExpectMatchesRescan(index, store, r);  // Attach primed from ForEachBucket

  // Mutations are invisible until the next Attach re-primes the bands.
  store.GetOrCreate(C(0b001))->Write(0b01, {0, 1, 4});
  store.GetOrCreate(C(0b011))->Write(0b11, {});
  EXPECT_EQ(index.stats().notifications, 0u);
  index.Attach(&store, StoragePolicy::kAllSkylineConstraints);
  ExpectMatchesRescan(index, store, r);
  EXPECT_GE(index.stats().rebuilds, 2u);  // one prime per Attach
  fs::remove_all(dir);
}

TEST(SkybandIndexSegmented, ObserverFollowsPerSegmentWrites) {
  Dataset data = PaperTableIV();
  Relation r(data.schema());
  for (const Row& row : data.rows()) r.Append(row);
  SegmentedMuStore store(3, {0, 1, 2, 0, 1, 2, 0, 1});

  SkybandIndex index;
  index.Attach(&store, StoragePolicy::kAllSkylineConstraints);
  EXPECT_TRUE(index.live());

  auto C = [&](DimMask mask, TupleId t = 4) {
    return Constraint::ForTuple(r, t, mask);
  };
  store.GetOrCreate(C(0b001))->Write(0b01, {0, 1});
  ExpectMatchesRescan(index, store, r);
  store.GetOrCreate(C(0b010))->Write(0b10, {2});
  store.GetOrCreate(C(0b011))->Write(0b11, {3, 4});
  ExpectMatchesRescan(index, store, r);
  store.segment(0)->Find(C(0b011))->Write(0b11, {3});  // shard's direct path
  ExpectMatchesRescan(index, store, r);
  store.Find(C(0b001))->Write(0b01, {});  // emptied -> band erased
  ExpectMatchesRescan(index, store, r);
}

TEST(SkybandIndexRestore, AttachPrimesFromDeserializedDump) {
  // Populate a memory store through discovery, snapshot it, restore the
  // dump into a file store (which never notifies): Attach alone must leave
  // the index coherent with the restored buckets.
  Dataset data = RandomDataset(SmallConfig(30, 11));
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer("SBottomUp", &relation, {});
  ASSERT_TRUE(disc_or.ok());
  std::unique_ptr<Discoverer> disc = std::move(disc_or).value();
  std::vector<SkylineFact> facts;
  for (const Row& row : data.rows()) {
    disc->Discover(relation.Append(row), &facts);
  }

  const fs::path base =
      fs::temp_directory_path() / "sitfact_skyband_restore_test";
  fs::remove_all(base);
  fs::create_directories(base);
  const std::string dump = (base / "buckets.bin").string();
  {
    BinaryWriter w(dump);
    disc->mutable_store()->SerializeBuckets(&w);
  }

  FileMuStore restored((base / "store").string());
  {
    BinaryReader reader(dump);
    ASSERT_TRUE(restored
                    .DeserializeBuckets(&reader,
                                        relation.schema().num_dimensions(),
                                        relation.size())
                    .ok());
  }

  SkybandIndex index;
  index.Attach(&restored, disc->storage_policy());
  EXPECT_FALSE(index.live());
  ExpectMatchesRescan(index, restored, relation);
  // And the restored bands agree with the original store's bands.
  ExpectMatchesRescan(index, *disc->mutable_store(), relation);
  fs::remove_all(base);
}

void ExpectReportsEqual(const ArrivalReport& a, const ArrivalReport& b) {
  ASSERT_EQ(a.tuple, b.tuple);
  ASSERT_EQ(a.facts, b.facts);
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    ASSERT_EQ(a.ranked[i].fact, b.ranked[i].fact) << "rank " << i;
    ASSERT_EQ(a.ranked[i].context_size, b.ranked[i].context_size);
    ASSERT_EQ(a.ranked[i].skyline_size, b.ranked[i].skyline_size);
    ASSERT_EQ(a.ranked[i].prominence, b.ranked[i].prominence);
  }
  ASSERT_EQ(a.prominent.size(), b.prominent.size());
  for (size_t i = 0; i < a.prominent.size(); ++i) {
    ASSERT_EQ(a.prominent[i].fact, b.prominent[i].fact);
  }
}

/// The index may only change how |λ| is obtained: re-ranks `report`'s
/// facts with an evaluator that has no index and reads the engine's store
/// directly (the path file-backed stores take), and requires the same
/// ranked list and prominent selection. Must run before the next mutation.
void ExpectIndexFreeRanking(DiscoveryEngine& engine,
                            const ArrivalReport& report, double tau) {
  ProminenceEvaluator store_reads(&engine.relation(), &engine.counter(),
                                  engine.discoverer().mutable_store(),
                                  engine.discoverer().storage_policy());
  ArrivalReport expected;
  expected.tuple = report.tuple;
  expected.facts = report.facts;
  expected.ranked = store_reads.RankAll(report.facts);
  expected.prominent = SelectProminent(expected.ranked, tau);
  ExpectReportsEqual(report, expected);
}

/// The engine differential: an index-accelerated engine runs a random
/// Append/Remove/Update stream, and every report it returns is diffed
/// against the index-free ranking of the same store state.
void RunEngineDifferential(const std::string& algo) {
  Dataset data = RandomDataset(SmallConfig(70, 23));
  Relation relation(data.schema());
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algo, &relation, {});
  ASSERT_TRUE(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);
  ASSERT_NE(engine.skyband_index(), nullptr);
  EXPECT_TRUE(engine.skyband_index()->live());

  Rng rng(5);
  for (const Row& row : data.rows()) {
    ExpectIndexFreeRanking(engine, engine.Append(row), config.tau);
    if (::testing::Test::HasFatalFailure()) return;
    if (relation.size() > 5 && rng.NextBool(0.15)) {
      const TupleId t = rng.NextBounded(relation.size());
      if (!relation.IsDeleted(t)) {
        if (rng.NextBool(0.5)) {
          ASSERT_TRUE(engine.Remove(t).ok());
        } else {
          auto updated = engine.Update(t, data.rows()[0]);
          ASSERT_TRUE(updated.ok());
          ExpectIndexFreeRanking(engine, updated.value(), config.tau);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  // The index actually served the denominators, and its shadow still
  // mirrors the store exactly.
  const SkybandIndex::Stats stats = engine.skyband_index()->stats();
  EXPECT_GT(stats.size_probes + stats.union_probes, 0u);
  ExpectMatchesRescan(*engine.skyband_index(),
                      *engine.discoverer().mutable_store(), relation);
}

TEST(SkybandIndexEngine, SBottomUpReportsIdenticalOnVsOff) {
  RunEngineDifferential("SBottomUp");
}

TEST(SkybandIndexEngine, STopDownReportsIdenticalOnVsOff) {
  RunEngineDifferential("STopDown");
}

TEST(SkybandIndexSharded, ConcurrentNotificationsStayCoherent) {
  // The sharded engine's pool threads notify the index concurrently during
  // AppendBatch; after the join the bands must equal a bucket rescan. This
  // test is the SkybandIndex TSan target in CI.
  Dataset data = RandomDataset(SmallConfig(120, 31));
  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = 3;
  config.num_threads = 3;
  config.tau = 2.0;
  ShardedEngine engine(&relation, config);
  ASSERT_NE(engine.skyband_index(), nullptr);
  EXPECT_TRUE(engine.skyband_index()->live());

  std::vector<ArrivalReport> reports = engine.AppendBatch(data.rows());
  EXPECT_EQ(reports.size(), data.rows().size());
  ExpectMatchesRescan(*engine.skyband_index(),
                      *engine.discoverer().mutable_store(), relation);

  ASSERT_TRUE(engine.Remove(7).ok());
  auto updated = engine.Update(12, data.rows()[1]);
  ASSERT_TRUE(updated.ok());
  ExpectMatchesRescan(*engine.skyband_index(),
                      *engine.discoverer().mutable_store(), relation);
}

}  // namespace
}  // namespace sitfact
