// Google-benchmark microbenchmarks for the individual substrates: the
// dominance kernel, Prop. 4 partitioning, pruner sets, constraint
// hashing, Algorithm 1 enumeration, k-d tree queries, µ-store bucket
// operations, CSC insertion, steady-state per-arrival discovery, CRC-32,
// CSV parsing, snapshot IO, and the k-skyband zeta transform.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "harness.h"

#include "common/crc32.h"
#include "common/csv.h"
#include "core/bottom_up.h"
#include "core/kskyband.h"
#include "core/shared_top_down.h"
#include "csc/compressed_skycube.h"
#include "harness.h"
#include "io/snapshot.h"
#include "lattice/constraint_enumerator.h"
#include "lattice/pruner_set.h"
#include "skyline/dominance.h"
#include "skyline/kdtree.h"
#include "skyline/subspace_index.h"
#include "storage/memory_mu_store.h"

namespace sitfact {
namespace bench {
namespace {

/// Shared fixture data: one NBA slice and its relation.
struct NbaFixture {
  NbaFixture() : data(MakeNbaData(4000, 5, 7)), relation(data.schema()) {
    for (const Row& row : data.rows()) relation.Append(row);
  }
  Dataset data;
  Relation relation;
};

NbaFixture& Fixture() {
  static auto* fixture = new NbaFixture();
  return *fixture;
}

void BM_DominanceFullSpace(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  MeasureMask full = r.schema().FullMeasureMask();
  TupleId a = 17, b = 1042;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dominates(r, a, b, full));
  }
}
BENCHMARK(BM_DominanceFullSpace);

void BM_PartitionProp4(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  TupleId a = 17, b = 1042;
  for (auto _ : state) {
    auto p = r.Partition(a, b);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_PartitionProp4);

void BM_AgreeMask(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.AgreeMask(33, 2048));
  }
}
BENCHMARK(BM_AgreeMask);

void BM_PrunerSetAddAndQuery(benchmark::State& state) {
  for (auto _ : state) {
    PrunerSet set;
    for (DimMask p : {0b00011u, 0b01100u, 0b10001u, 0b01111u}) set.Add(p);
    bool pruned = false;
    for (DimMask q = 0; q < 32; ++q) pruned ^= set.IsPruned(q);
    benchmark::DoNotOptimize(pruned);
  }
}
BENCHMARK(BM_PrunerSetAddAndQuery);

void BM_ConstraintHash(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  Constraint c = Constraint::ForTuple(r, 99, 0b10110);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.Hash());
  }
}
BENCHMARK(BM_ConstraintHash);

void BM_Alg1Enumeration(benchmark::State& state) {
  int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateTupleConstraints(d, d));
  }
}
BENCHMARK(BM_Alg1Enumeration)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

void BM_KdTreeDominatorQuery(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  static KdTree* tree = [] {
    auto* t = new KdTree(&Fixture().relation);
    for (TupleId i = 0; i + 1 < Fixture().relation.size(); ++i) t->Insert(i);
    return t;
  }();
  TupleId probe = r.size() - 1;
  MeasureMask m = static_cast<MeasureMask>(state.range(0));
  for (auto _ : state) {
    int count = 0;
    tree->VisitDominators(probe, m, [&](TupleId) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_KdTreeDominatorQuery)->Arg(0b1111111)->Arg(0b0000111)->Arg(0b1);

void BM_MuStoreBucketRoundTrip(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  MemoryMuStore store;
  Constraint c = Constraint::ForTuple(r, 7, 0b00101);
  MuStore::Context* ctx = store.GetOrCreate(c);
  ctx->Write(0b11, {1, 2, 3, 4, 5});
  std::vector<TupleId> bucket;
  for (auto _ : state) {
    ctx->Read(0b11, &bucket);
    bucket.push_back(7);
    ctx->Write(0b11, bucket);
    ctx->Erase(0b11, 7);
  }
}
BENCHMARK(BM_MuStoreBucketRoundTrip);

void BM_CscInsert(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  SubspaceUniverse universe(7, 7);
  std::vector<MeasureMask> sky;
  uint64_t comparisons = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SubspaceIndex index(&r);
    CompressedSkycube cube(&universe, &index);
    state.ResumeTiming();
    for (TupleId t = 0; t < 64; ++t) {
      index.Insert(t);
      sky.clear();
      cube.Insert(r, t, &sky, &comparisons);
    }
  }
  benchmark::DoNotOptimize(comparisons);
}
BENCHMARK(BM_CscInsert);

/// Steady-state per-arrival cost: preload a stream, then time Discover on
/// the remaining tuples (one per iteration, round robin over a tail slice).
template <typename Algo>
void SteadyStateDiscover(benchmark::State& state) {
  Dataset data = MakeNbaData(3000, 5, 7);
  Relation relation(data.schema());
  DiscoveryOptions options;
  options.max_bound_dims = 4;
  Algo disc(&relation, options);
  std::vector<SkylineFact> facts;
  for (int i = 0; i < 2800; ++i) {
    facts.clear();
    disc.Discover(relation.Append(data.rows()[i]), &facts);
  }
  size_t next = 2800;
  for (auto _ : state) {
    if (next >= data.rows().size()) {
      state.SkipWithError("stream exhausted");
      return;
    }
    facts.clear();
    disc.Discover(relation.Append(data.rows()[next++]), &facts);
    benchmark::DoNotOptimize(facts);
  }
}

void BM_SteadyStateBottomUp(benchmark::State& state) {
  SteadyStateDiscover<BottomUpDiscoverer>(state);
}
BENCHMARK(BM_SteadyStateBottomUp)->Iterations(150);

void BM_SteadyStateSharedTopDown(benchmark::State& state) {
  SteadyStateDiscover<SharedTopDownDiscoverer>(state);
}
BENCHMARK(BM_SteadyStateSharedTopDown)->Iterations(150);

void BM_SteadyStateKSkyband(benchmark::State& state) {
  // The k-skyband pass re-scans history each arrival; time it at the same
  // stream depth as the skyline-discovery steady states above.
  Dataset data = MakeNbaData(3000, 5, 7);
  Relation relation(data.schema());
  KSkybandDiscoverer::Options options;
  options.k = static_cast<int>(state.range(0));
  options.max_bound_dims = 4;
  KSkybandDiscoverer disc(&relation, options);
  std::vector<KSkybandFact> facts;
  for (int i = 0; i < 2800; ++i) relation.Append(data.rows()[i]);
  size_t next = 2800;
  for (auto _ : state) {
    if (next >= data.rows().size()) {
      state.SkipWithError("stream exhausted");
      return;
    }
    facts.clear();
    disc.Discover(relation.Append(data.rows()[next++]), &facts);
    benchmark::DoNotOptimize(facts);
  }
}
BENCHMARK(BM_SteadyStateKSkyband)->Arg(1)->Arg(4)->Iterations(150);

void BM_Crc32(benchmark::State& state) {
  std::vector<char> buffer(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32::Of(buffer.data(), buffer.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 20);

void BM_CsvSplitLine(benchmark::State& state) {
  const std::string line =
      "Jordan,\"Chicago, IL\",SG,1992-93,Feb,Bulls,Knicks,42,6,9,1,3,2,4";
  std::vector<std::string> fields;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitCsvLine(line, &fields));
  }
}
BENCHMARK(BM_CsvSplitLine);

void BM_RelationSnapshotRoundTrip(benchmark::State& state) {
  const Relation& r = Fixture().relation;
  const std::string path =
      (std::filesystem::temp_directory_path() / "sitfact_micro.snap")
          .string();
  for (auto _ : state) {
    Status saved = SaveRelationSnapshot(r, path);
    auto loaded = LoadRelationSnapshot(path);
    benchmark::DoNotOptimize(loaded.ok() && saved.ok());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(r.size()));
}
BENCHMARK(BM_RelationSnapshotRoundTrip)->Iterations(20);

}  // namespace
}  // namespace bench
}  // namespace sitfact

// Expanded BENCHMARK_MAIN() so the run also emits BENCH_micro_components.json
// (Google Benchmark owns the per-benchmark numbers; the JSON records the
// whole-process wall time like every other bench binary).
int main(int argc, char** argv) {
  sitfact::bench::InitBenchOutput(&argc, argv);
  sitfact::bench::ScopedBenchJson json("micro_components");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
