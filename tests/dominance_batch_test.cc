// Batched-vs-scalar dominance kernel contract (ISSUE 5 satellite): the
// kernels of skyline/dominance_batch.h must agree bit-for-bit with
// Relation::Partition / AgreeMask on every input, including the edge cases
// that historically bite dominance code — all-equal tuples, NaN measures
// (which must set neither bit), single-bit subspace masks, and block-size
// boundaries where a batch splits.

#include <cmath>
#include <limits>
#include <vector>

#include "common/bits.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "relation/relation.h"
#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"
#include "skyline/dominance_simd.h"
#include "skyline/skyline_compute.h"

#include <gtest/gtest.h>

namespace sitfact {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Schema MixedSchema() {
  return Schema({{"d0"}, {"d1"}, {"d2"}},
                {{"m0", Direction::kLargerIsBetter},
                 {"m1", Direction::kSmallerIsBetter},
                 {"m2", Direction::kLargerIsBetter},
                 {"m3", Direction::kSmallerIsBetter}});
}

/// Random relation with heavy ties, occasional NaN, mixed directions.
Relation RandomRelation(int n, uint64_t seed, double nan_prob) {
  Relation r(MixedSchema());
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Row row;
    for (int d = 0; d < 3; ++d) {
      row.dimensions.push_back("v" + std::to_string(rng.NextBounded(3)));
    }
    for (int j = 0; j < 4; ++j) {
      if (nan_prob > 0 && rng.NextBool(nan_prob)) {
        row.measures.push_back(kNaN);
      } else {
        row.measures.push_back(static_cast<double>(rng.NextBounded(5)));
      }
    }
    r.Append(row);
  }
  return r;
}

void ExpectPartitionsEqual(const Relation::MeasurePartition& want,
                           const Relation::MeasurePartition& got,
                           const std::string& what) {
  EXPECT_EQ(want.worse, got.worse) << what;
  EXPECT_EQ(want.better, got.better) << what;
}

TEST(DominanceBatchTest, MatchesScalarPartitionOnRandomData) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Relation r = RandomRelation(300, seed, /*nan_prob=*/0.0);
    Rng rng(seed + 100);
    std::vector<TupleId> ids;
    for (TupleId i = 0; i < r.size(); ++i) ids.push_back(i);
    std::vector<Relation::MeasurePartition> parts(r.size());
    for (int probe_trial = 0; probe_trial < 10; ++probe_trial) {
      TupleId t = static_cast<TupleId>(rng.NextBounded(r.size()));
      PartitionBatch(r, t, ids.data(), ids.size(), parts.data());
      for (TupleId o = 0; o < r.size(); ++o) {
        ExpectPartitionsEqual(r.Partition(t, o), parts[o], "batch");
      }
      PartitionRange(r, t, 0, r.size(), parts.data());
      for (TupleId o = 0; o < r.size(); ++o) {
        ExpectPartitionsEqual(r.Partition(t, o), parts[o], "range");
      }
    }
  }
}

TEST(DominanceBatchTest, MaskedVariantsRestrictToMask) {
  Relation r = RandomRelation(200, 7, /*nan_prob=*/0.05);
  std::vector<TupleId> ids;
  for (TupleId i = 0; i < r.size(); ++i) ids.push_back(i);
  std::vector<Relation::MeasurePartition> parts(r.size());
  MeasureMask full = r.schema().FullMeasureMask();
  for (MeasureMask m = 0; m <= full; ++m) {
    TupleId t = m % r.size();
    PartitionBatchMasked(r, t, ids.data(), ids.size(), m, parts.data());
    for (TupleId o = 0; o < r.size(); ++o) {
      Relation::MeasurePartition want = r.Partition(t, o);
      EXPECT_EQ(want.worse & m, parts[o].worse) << "m=" << m;
      EXPECT_EQ(want.better & m, parts[o].better) << "m=" << m;
      // Nothing outside the mask may leak into the output.
      EXPECT_EQ(parts[o].worse & ~m, 0u);
      EXPECT_EQ(parts[o].better & ~m, 0u);
    }
    PartitionRangeMasked(r, t, 0, r.size(), m, parts.data());
    for (TupleId o = 0; o < r.size(); ++o) {
      Relation::MeasurePartition want = r.Partition(t, o);
      EXPECT_EQ(want.worse & m, parts[o].worse);
      EXPECT_EQ(want.better & m, parts[o].better);
    }
  }
}

TEST(DominanceBatchTest, SingleBitMasksMatchScalarDominates) {
  Relation r = RandomRelation(150, 11, /*nan_prob=*/0.1);
  std::vector<Relation::MeasurePartition> parts(r.size());
  for (int j = 0; j < r.schema().num_measures(); ++j) {
    MeasureMask m = 1u << j;
    for (TupleId t : {TupleId{0}, TupleId{73}, TupleId{149}}) {
      PartitionRangeMasked(r, t, 0, r.size(), m, parts.data());
      for (TupleId o = 0; o < r.size(); ++o) {
        EXPECT_EQ(Dominates(r, o, t, m), DominatedInSubspace(parts[o], m))
            << "j=" << j << " t=" << t << " o=" << o;
        EXPECT_EQ(Dominates(r, t, o, m), DominatesInSubspace(parts[o], m));
      }
    }
  }
}

TEST(DominanceBatchTest, AllEqualTuplesProduceEmptyPartitions) {
  Relation r(MixedSchema());
  for (int i = 0; i < 200; ++i) {
    r.Append(Row{{"a", "b", "c"}, {3.5, -1.0, 0.0, 7.25}});
  }
  std::vector<Relation::MeasurePartition> parts(r.size());
  PartitionRange(r, 5, 0, r.size(), parts.data());
  for (TupleId o = 0; o < r.size(); ++o) {
    EXPECT_EQ(parts[o].worse, 0u);
    EXPECT_EQ(parts[o].better, 0u);
    // Equal tuples never dominate each other (Def. 2).
    EXPECT_FALSE(Dominates(r, 5, o, r.schema().FullMeasureMask()));
  }
  // A skyline over identical tuples keeps every one of them.
  std::vector<TupleId> all;
  for (TupleId i = 0; i < r.size(); ++i) all.push_back(i);
  EXPECT_EQ(ComputeSkyline(r, all, r.schema().FullMeasureMask()).size(),
            all.size());
}

TEST(DominanceBatchTest, NaNSetsNeitherBitEverywhere) {
  Relation r(MixedSchema());
  r.Append(Row{{"a", "b", "c"}, {1.0, 2.0, 3.0, 4.0}});    // t0: finite
  r.Append(Row{{"a", "b", "c"}, {kNaN, 2.0, 5.0, 4.0}});   // t1: NaN m0
  r.Append(Row{{"a", "b", "c"}, {kNaN, kNaN, kNaN, kNaN}});  // t2: all NaN
  r.Append(Row{{"a", "b", "c"}, {2.0, kNaN, 3.0, 4.0}});   // t3: NaN m1 (s.i.b.)
  std::vector<Relation::MeasurePartition> parts(r.size());
  for (TupleId t = 0; t < r.size(); ++t) {
    PartitionRange(r, t, 0, r.size(), parts.data());
    for (TupleId o = 0; o < r.size(); ++o) {
      Relation::MeasurePartition want = r.Partition(t, o);
      ExpectPartitionsEqual(want, parts[o], "NaN");
    }
  }
  // NaN vs anything contributes no bit: t0 vs t2 has empty partition.
  Relation::MeasurePartition p = r.Partition(0, 2);
  EXPECT_EQ(p.worse, 0u);
  EXPECT_EQ(p.better, 0u);
  // t0 vs t1: m0 incomparable (NaN), m2 differs (3 < 5 larger-is-better).
  p = r.Partition(0, 1);
  EXPECT_EQ(p.worse, 0b0100u);
  EXPECT_EQ(p.better, 0u);
}

TEST(DominanceBatchTest, AgreeMaskRangeMatchesScalar) {
  Relation r = RandomRelation(257, 13, /*nan_prob=*/0.0);
  std::vector<DimMask> agrees(r.size());
  for (TupleId t : {TupleId{0}, TupleId{128}, TupleId{256}}) {
    AgreeMaskRange(r, t, 0, r.size(), agrees.data());
    for (TupleId o = 0; o < r.size(); ++o) {
      EXPECT_EQ(r.AgreeMask(t, o), agrees[o]) << "t=" << t << " o=" << o;
    }
    EXPECT_EQ(agrees[t], FullMask(r.schema().num_dimensions()));
  }
}

TEST(DominanceBatchTest, BlockBoundarySizes) {
  // Exercise counts around the kernel block size so refill seams are hit.
  for (size_t n : {kDominanceBlockSize - 1, kDominanceBlockSize,
                   kDominanceBlockSize + 1, 2 * kDominanceBlockSize + 3}) {
    Relation r = RandomRelation(static_cast<int>(n), 17 + n, 0.02);
    BlockedPartitionRangeScan scan(r, 0, r.size(),
                                   r.schema().FullMeasureMask());
    for (TupleId o = 0; o < r.size(); ++o) {
      ExpectPartitionsEqual(r.Partition(0, o), scan.at(o), "range scan");
    }
    std::vector<TupleId> ids;
    for (TupleId i = 0; i < r.size(); ++i) ids.push_back(i);
    BlockedPartitionScan id_scan(r, 0, ids.data(), ids.size(), 0b0101u,
                                 /*unmasked=*/false);
    for (size_t i = 0; i < ids.size(); ++i) {
      Relation::MeasurePartition want = r.Partition(0, ids[i]);
      EXPECT_EQ(want.worse & 0b0101u, id_scan.at(i).worse);
      EXPECT_EQ(want.better & 0b0101u, id_scan.at(i).better);
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD dispatch tiers (skyline/dominance_simd.h). CI additionally runs this
// whole binary once per forced tier (SITFACT_SIMD=scalar|avx2), which
// exercises the env-resolved ActiveDominanceOps() path end to end; the
// tests below sweep every tier the machine supports inside one process via
// DominanceOpsForTier, so a dev box always covers all its tiers too.

std::vector<SimdTier> AllTierNames() {
  return {SimdTier::kScalar, SimdTier::kAvx2};
}

TEST(DominanceSimdTest, ResolveSimdTierPolicy) {
  // Explicit override below capability: honored.
  EXPECT_EQ(ResolveSimdTier("scalar", SimdTier::kAvx2), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("avx2", SimdTier::kAvx2), SimdTier::kAvx2);
  // Override above capability: clamped, never an illegal instruction.
  EXPECT_EQ(ResolveSimdTier("avx2", SimdTier::kScalar), SimdTier::kScalar);
  // Absent / empty / unknown spellings fall back to detection. "sse2"
  // named a tier that no longer exists, so it is unknown like any other.
  EXPECT_EQ(ResolveSimdTier(nullptr, SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("", SimdTier::kScalar), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("AVX2", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("neon", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("sse2", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("sse2", SimdTier::kScalar), SimdTier::kScalar);
}

TEST(DominanceSimdTest, ActiveOpsMatchActiveTier) {
  // The dispatch table is resolved once from the active tier; requesting
  // that tier again must yield the very same table (no per-call re-detect).
  EXPECT_EQ(&ActiveDominanceOps(), &DominanceOpsForTier(ActiveSimdTier()));
  // An over-capability request clamps onto the detected tier's table.
  SimdTier detected = DetectSimdTier();
  SimdTier capped = detected < SimdTier::kAvx2 ? detected : SimdTier::kAvx2;
  EXPECT_EQ(&DominanceOpsForTier(SimdTier::kAvx2),
            &DominanceOpsForTier(capped));
}

/// The full scalar-vs-kernel bit-for-bit contract, per tier: every kernel
/// shape against Relation::Partition / AgreeMask on NaN-heavy data, with
/// misaligned begin offsets (1..7 covers every phase of both vector
/// widths), counts below one vector, and block-seam tails.
TEST(DominanceSimdTest, AllTiersMatchScalarOracleAtEveryAlignment) {
  Relation r = RandomRelation(4 * static_cast<int>(kDominanceBlockSize) + 11,
                              41, /*nan_prob=*/0.15);
  const TupleId n = r.size();
  std::vector<Relation::MeasurePartition> parts(n);
  std::vector<DimMask> agrees(n);
  std::vector<TupleId> ids;
  Rng rng(42);
  for (TupleId i = 0; i < n; ++i) ids.push_back(i);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
  }
  for (SimdTier tier : AllTierNames()) {
    const DominanceColumnOps& ops = DominanceOpsForTier(tier);
    SCOPED_TRACE(SimdTierName(tier));
    // Misaligned begins × tail-heavy counts around the vector widths.
    for (TupleId begin : {TupleId{0}, TupleId{1}, TupleId{2}, TupleId{3},
                          TupleId{4}, TupleId{5}, TupleId{6}, TupleId{7}}) {
      for (size_t count :
           {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
            size_t{13}, kDominanceBlockSize,
            2 * kDominanceBlockSize + 3, static_cast<size_t>(n - begin)}) {
        TupleId end = begin + static_cast<TupleId>(
                                  std::min<size_t>(count, n - begin));
        TupleId t = (begin * 31 + static_cast<TupleId>(count)) % n;
        PartitionRangeWith(ops, r, t, begin, end, parts.data());
        for (TupleId o = begin; o < end; ++o) {
          ExpectPartitionsEqual(r.Partition(t, o), parts[o - begin],
                                "range tier");
        }
        PartitionRangeMaskedWith(ops, r, t, begin, end, 0b1010u,
                                 parts.data());
        for (TupleId o = begin; o < end; ++o) {
          Relation::MeasurePartition want = r.Partition(t, o);
          EXPECT_EQ(want.worse & 0b1010u, parts[o - begin].worse);
          EXPECT_EQ(want.better & 0b1010u, parts[o - begin].better);
        }
        AgreeMaskRangeWith(ops, r, t, begin, end, agrees.data());
        for (TupleId o = begin; o < end; ++o) {
          EXPECT_EQ(r.AgreeMask(t, o), agrees[o - begin]);
        }
        size_t id_count = std::min<size_t>(count, ids.size() - begin);
        PartitionBatchWith(ops, r, t, ids.data() + begin, id_count,
                           parts.data());
        for (size_t i = 0; i < id_count; ++i) {
          ExpectPartitionsEqual(r.Partition(t, ids[begin + i]), parts[i],
                                "batch tier");
        }
        PartitionBatchMaskedWith(ops, r, t, ids.data() + begin, id_count,
                                 0b0110u, parts.data());
        for (size_t i = 0; i < id_count; ++i) {
          Relation::MeasurePartition want = r.Partition(t, ids[begin + i]);
          EXPECT_EQ(want.worse & 0b0110u, parts[i].worse);
          EXPECT_EQ(want.better & 0b0110u, parts[i].better);
        }
      }
    }
  }
}

TEST(DominanceSimdTest, AllTiersAgreeOnNaNAndAllEqualColumns) {
  // A relation with an all-NaN measure, an all-equal measure, and a mixed
  // one: the degenerate columns every vector predicate must get right.
  Relation r(MixedSchema());
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    r.Append(Row{{"a", "b", "c"},
                 {kNaN, 5.0, static_cast<double>(rng.NextBounded(3)),
                  rng.NextBool(0.2) ? kNaN : 1.5}});
  }
  std::vector<Relation::MeasurePartition> parts(r.size());
  for (SimdTier tier : AllTierNames()) {
    const DominanceColumnOps& ops = DominanceOpsForTier(tier);
    SCOPED_TRACE(SimdTierName(tier));
    for (TupleId t : {TupleId{0}, TupleId{57}, TupleId{99}}) {
      PartitionRangeWith(ops, r, t, 0, r.size(), parts.data());
      for (TupleId o = 0; o < r.size(); ++o) {
        Relation::MeasurePartition want = r.Partition(t, o);
        ExpectPartitionsEqual(want, parts[o], "degenerate columns");
        // NaN (m0) and all-equal (m1) columns contribute no bits, ever.
        EXPECT_EQ(parts[o].worse & 0b0011u, 0u);
        EXPECT_EQ(parts[o].better & 0b0011u, 0u);
      }
    }
  }
}

/// Pins the ramped_scan billing of bench/micro_dominance_batch.cc: the
/// early-exit consumer bills exactly the pairs it consumes — stop_p + 1
/// per probe (positions 0..stop_p inclusive) — so at the default bench
/// scale (n=60000, 512 probes, stops drawn from Rng(13)) the committed
/// baseline's 3,831,440 is the exact sum of the random exit depths, not
/// comparison drift against the 64×60000 = 3,840,000 full-scan variants.
/// If BlockedPartitionRangeScan ever consumed or skipped pairs behind the
/// consumer's back, the small-scale replica below would diverge.
TEST(DominanceBatchTest, RampedScanBillingIsExactlyConsumedPairs) {
  // Pure arithmetic replica of the bench's billing loop at default scale.
  {
    const uint64_t n = 60000;
    Rng rng(13);
    uint64_t expected = 0;
    for (int p = 0; p < 64 * 8; ++p) {
      expected += 2 + rng.NextBounded(n / 4);  // (1 + bounded) + 1 consumed
    }
    EXPECT_EQ(expected, 3831440u);  // BENCH_micro_dominance_batch baseline
  }
  // Small-scale actual run: consumed pairs must equal the same formula.
  const int n = 600;
  Relation r = RandomRelation(n, 2024, 0.0);
  Rng rng(13);
  uint64_t billed = 0, expected = 0;
  for (int p = 0; p < 32; ++p) {
    TupleId t = static_cast<TupleId>((p * 131) % n);
    TupleId stop = static_cast<TupleId>(
        1 + rng.NextBounded(static_cast<uint64_t>(n) / 4));
    expected += stop + 1;
    BlockedPartitionRangeScan scan(r, t, static_cast<TupleId>(n), 0b0011u);
    for (TupleId o = 0; o < static_cast<TupleId>(n); ++o) {
      Relation::MeasurePartition want = r.Partition(t, o);
      EXPECT_EQ(want.worse & 0b0011u, scan.at(o).worse);
      ++billed;
      if (o >= stop) break;
    }
  }
  EXPECT_EQ(billed, expected);
}

TEST(DominanceBatchTest, RampedScanTracksEarlyExitConsumers) {
  // A consumer that restarts scans at arbitrary forward positions (the
  // lattice protocol) must still see correct partitions after refills.
  Relation r = RandomRelation(500, 23, 0.0);
  std::vector<TupleId> ids;
  for (TupleId i = 0; i < r.size(); i += 2) ids.push_back(i);
  BlockedPartitionScan scan(r, 1, ids.data(), ids.size(),
                            r.schema().FullMeasureMask(), /*unmasked=*/true);
  for (size_t i = 0; i < ids.size(); i += 7) {  // skips across block seams
    ExpectPartitionsEqual(r.Partition(1, ids[i]), scan.at(i), "strided");
  }
}

}  // namespace
}  // namespace sitfact
