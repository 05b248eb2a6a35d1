// Micro bench for the batched dominance kernel (skyline/dominance_batch.h)
// against the scalar per-pair oracle it replaces on the discovery hot path.
// Four shapes bracket the real call sites:
//   scalar_partition   one Relation::Partition per pair (pre-batch hot path)
//   range_full         PartitionRange over contiguous history blocks
//                      (k-skyband pass 1, BaselineSeq scans)
//   batch_masked       PartitionBatchMasked over an id list (µ buckets,
//                      candidate lists), |m| = 3 of 7 measures
//   ramped_scan        BlockedPartitionScan with per-probe early exit at a
//                      random depth (the early-exit skyline scan profile)
// The `comparisons` field records tuple pairs partitioned — a deterministic
// function of the seeded input, so CI's bench-compare gate and the
// bench-smoke ctest label can catch kernel regressions. Billing note:
// ramped_scan bills exactly the pairs its early-exit consumer consumes
// (stop_p + 1 per probe, stops drawn from Rng(13)), so its count — e.g.
// 3,831,440 at default scale — intentionally differs from the 64×n
// full-scan variants; dominance_batch_test pins the formula and the
// default-scale constant so the comparison gate can't absorb real drift.
// The kernels dispatch through the SIMD tier table (scalar/AVX2,
// skyline/dominance_simd.h); comparisons are tier-independent, wall time
// is not, and the dispatched tier is stamped into the JSON. peak_bytes
// carries the process peak RSS at each record (PeakRssBytes — there is no
// engine here to report engine-owned bytes).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "harness.h"
#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"

namespace sitfact {
namespace bench {
namespace {

Relation MakeRelation(int n, int nm) {
  std::vector<DimensionAttribute> dims = {{"d0"}, {"d1"}};
  std::vector<MeasureAttribute> meas;
  for (int j = 0; j < nm; ++j) {
    meas.push_back({"m" + std::to_string(j), j % 2 == 1
                                                 ? Direction::kSmallerIsBetter
                                                 : Direction::kLargerIsBetter});
  }
  Relation r(Schema(std::move(dims), std::move(meas)));
  Rng rng(2024);
  Row row;
  row.dimensions = {"a", "b"};
  for (int i = 0; i < n; ++i) {
    row.measures.clear();
    for (int j = 0; j < nm; ++j) {
      row.measures.push_back(static_cast<double>(rng.NextBounded(64)));
    }
    r.Append(row);
  }
  return r;
}

void Report(const char* name, int n, int nm, double wall_ms, uint64_t pairs) {
  std::printf("%-18s  %9llu pairs  %8.2f ms  %6.2f ns/pair\n", name,
              static_cast<unsigned long long>(pairs), wall_ms,
              pairs > 0 ? wall_ms * 1e6 / static_cast<double>(pairs) : 0.0);
  RecordBench(BenchRecord{name, static_cast<uint64_t>(n), 2, nm, wall_ms,
                          pairs, PeakRssBytes()});
}

void Run() {
  const int n = std::max(Scaled(60000), 1000);
  const int nm = 7;
  const int probes = 64;
  Relation r = MakeRelation(n, nm);
  const MeasureMask m3 = 0b0010011;  // three of seven measures
  volatile uint64_t sink = 0;

  // scalar_partition: the pre-batch per-pair oracle.
  {
    WallTimer timer;
    uint64_t pairs = 0;
    for (int p = 0; p < probes; ++p) {
      TupleId t = static_cast<TupleId>((p * 997) % n);
      for (TupleId o = 0; o < static_cast<TupleId>(n); ++o) {
        Relation::MeasurePartition part = r.Partition(t, o);
        sink = sink + part.worse;
        ++pairs;
      }
    }
    Report("scalar_partition", n, nm, timer.ElapsedMillis(), pairs);
  }

  std::vector<Relation::MeasurePartition> parts(static_cast<size_t>(n));

  // range_full: contiguous history scan, all measures.
  {
    WallTimer timer;
    uint64_t pairs = 0;
    for (int p = 0; p < probes; ++p) {
      TupleId t = static_cast<TupleId>((p * 997) % n);
      PartitionRange(r, t, 0, static_cast<TupleId>(n), parts.data());
      sink = sink + parts[static_cast<size_t>(p)].worse;
      pairs += static_cast<uint64_t>(n);
    }
    Report("range_full", n, nm, timer.ElapsedMillis(), pairs);
  }

  // batch_masked: gather over a shuffled id list, 3-measure subspace.
  {
    std::vector<TupleId> ids(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
    Rng rng(7);
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
    }
    WallTimer timer;
    uint64_t pairs = 0;
    for (int p = 0; p < probes; ++p) {
      TupleId t = static_cast<TupleId>((p * 997) % n);
      PartitionBatchMasked(r, t, ids.data(), ids.size(), m3, parts.data());
      sink = sink + parts[static_cast<size_t>(p)].worse;
      pairs += static_cast<uint64_t>(n);
    }
    Report("batch_masked", n, nm, timer.ElapsedMillis(), pairs);
  }

  // ramped_scan: early-exit consumer; exit depth cycles 1..~n/4 so both the
  // tiny-scan and deep-scan ends of the ramp are exercised.
  {
    WallTimer timer;
    uint64_t pairs = 0;
    Rng rng(13);
    for (int p = 0; p < probes * 8; ++p) {
      TupleId t = static_cast<TupleId>((p * 131) % n);
      TupleId stop = static_cast<TupleId>(
          1 + rng.NextBounded(static_cast<uint64_t>(n) / 4));
      BlockedPartitionRangeScan scan(r, t, static_cast<TupleId>(n), m3);
      for (TupleId o = 0; o < static_cast<TupleId>(n); ++o) {
        sink = sink + scan.at(o).worse;
        ++pairs;
        if (o >= stop) break;
      }
    }
    Report("ramped_scan", n, nm, timer.ElapsedMillis(), pairs);
  }

  if (sink == 0xdeadbeef) std::printf("# impossible\n");
}

}  // namespace
}  // namespace bench
}  // namespace sitfact

int main(int argc, char** argv) {
  sitfact::bench::InitBenchOutput(&argc, argv);
  sitfact::bench::ScopedBenchJson json("micro_dominance_batch");
  std::printf("# micro_dominance_batch: batched kernel vs scalar oracle\n");
  std::printf("# simd tier: %s (detected %s)\n",
              sitfact::SimdTierName(sitfact::ActiveSimdTier()),
              sitfact::SimdTierName(sitfact::DetectSimdTier()));
  sitfact::bench::Run();
  return 0;
}
