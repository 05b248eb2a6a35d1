// Differential tests for skyline/skyband_index.h. Every maintenance path is
// diffed against a brute-force ForEachBucket rescan after each mutation
// (memory, file, and segmented stores), and the sharded engine hammers
// OnBucketChanged from pool threads (the SkybandIndex TSan target). No
// engine attaches the index any more; ranking is tested against the store
// in prominence_test.cc.

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
#include "core/engine.h"
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

TEST(SkybandIndexSharded, ConcurrentNotificationsStayCoherent) {
  // The sharded engine's pool threads notify the index concurrently during
  // AppendBatch; after the join the bands must equal a bucket rescan. This
  // test is the SkybandIndex TSan target in CI. The engine keeps no shadow
  // of its own, so the test attaches one to the segmented store (declared
  // after the engine: it detaches before the store goes away).
  Dataset data = RandomDataset(SmallConfig(120, 31));
  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = 3;
  config.num_threads = 3;
  config.tau = 2.0;
  ShardedEngine engine(&relation, config);
  MuStore& store = *engine.discoverer().mutable_store();
  SkybandIndex index;
  index.Attach(&store, engine.discoverer().storage_policy());
  EXPECT_TRUE(index.live());

  std::vector<ArrivalReport> reports = engine.AppendBatch(data.rows());
  EXPECT_EQ(reports.size(), data.rows().size());
  EXPECT_GT(index.stats().notifications, 0u);
  ExpectMatchesRescan(index, store, relation);

  ASSERT_TRUE(engine.Remove(7).ok());
  auto updated = engine.Update(12, data.rows()[1]);
  ASSERT_TRUE(updated.ok());
  ExpectMatchesRescan(index, store, relation);
}

}  // namespace
}  // namespace sitfact
