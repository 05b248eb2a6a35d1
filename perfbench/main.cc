// The repo benchmark program: runs one workload for a fixed time, checks its
// outputs, and prints its metrics. Usage (run.py builds and invokes it):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-dir DIR]
//
// A run repeats rounds (fresh engine, whole op stream) until the next round
// would overrun --seconds. With --trace 1 every untraced round is followed by
// a traced one; the per-layer numbers come from the traced rounds and the
// difference between the two kinds is the tracing overhead. The last stdout
// line is the JSON result.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/cpu.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
};

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]\n",
               why.c_str());
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      a->seed_set = true;
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (a->seconds < 1) {
        *err = "--seconds must be >= 1";
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *err = "--trace takes 0 or 1";
        return false;
      }
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--trace-dir") {
      a->trace_dir = value;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *err = "bad number for " + flag + ": " + value;
      return false;
    }
  }
  if (a->workload.empty()) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

/// Nearest-rank percentile; end-to-end percentiles pool every round's
/// samples, so the tail has more samples beyond it than one round gives.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

template <typename F>
std::vector<double> Each(const std::vector<Round>& rounds, F&& f) {
  std::vector<double> out;
  for (const Round& r : rounds) out.push_back(f(r));
  return out;
}

template <typename F>
std::vector<double> Pool(const std::vector<Round>& rounds, F&& member) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    const std::vector<double>& v = r.*member;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

double PeakRssMb() {
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Metrics a user of the system sees; every workload produces each one.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds,
                             double peak_rss_mb) {
  return {
      {"setup_s", Median(Each(rounds, [](const Round& r) { return r.setup_s; })),
       "s"},
      {"ingest_rows_per_s",
       Median(Each(rounds,
                   [](const Round& r) {
                     return static_cast<double>(r.ops - r.failed_ops) /
                            r.ingest_s;
                   })),
       "1/s"},
      {"arrival_p50_ms", Percentile(Pool(rounds, &Round::arrival_ms), 0.50),
       "ms"},
      {"arrival_p90_ms", Percentile(Pool(rounds, &Round::arrival_ms), 0.90),
       "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"cpu_s_per_1k_rows",
       Median(Each(rounds,
                   [](const Round& r) {
                     return (r.cpu_user_s + r.cpu_sys_s) * 1000.0 /
                            static_cast<double>(r.ops);
                   })),
       "s"},
  };
}

const char* const kLayers[] = {"op",      "relation", "storage", "core",
                               "exec",    "service",  "persist", "net"};

/// Per-layer metrics: spans and counts from the traced rounds; the
/// workload-specific user-facing figures from the untraced ones.
std::vector<Metric> PerLayer(const std::vector<Round>& plain,
                             const std::vector<Round>& traced,
                             const Tracer& tracer) {
  const std::map<std::string, Tracer::Totals> spans = tracer.TotalsByName();
  auto mean_us = [&spans](const char* name) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) /
           static_cast<double>(it->second.count) / 1e3;
  };
  const Round& last = traced.back();
  auto counter = [&last](const char* name) {
    auto it = last.counters.find(name);
    return it == last.counters.end() ? 0.0 : it->second;
  };
  const double cpu = last.cpu_user_s + last.cpu_sys_s;
  const double ops = static_cast<double>(last.ops);
  uint64_t attempted = 0, failed = 0;
  for (const Round& r : plain) {
    attempted += r.ops + r.queries;
    failed += r.failed_ops + r.failed_queries;
  }
  const std::vector<double> query_us = Pool(plain, &Round::query_us);
  const double plain_ingest =
      Median(Each(plain, [](const Round& r) { return r.ingest_s; }));
  const double traced_ingest =
      Median(Each(traced, [](const Round& r) { return r.ingest_s; }));
  const double client_us =
      query_us.empty() ? 0.0
                       : std::accumulate(query_us.begin(), query_us.end(),
                                         0.0) /
                             static_cast<double>(query_us.size());

  std::vector<Metric> m = {
      {"relation.append_us", mean_us("relation.append"), "us"},
      {"storage.count_us", mean_us("storage.count"), "us"},
      {"storage.bucket_reads", counter("storage.bucket_reads"), "count"},
      {"storage.bucket_writes", counter("storage.bucket_writes"), "count"},
      {"storage.file_reads", counter("storage.file_reads"), "count"},
      {"storage.file_writes", counter("storage.file_writes"), "count"},
      {"storage.mu_mb", counter("storage.mu_mb"), "MB"},
      {"lattice.traversed", static_cast<double>(last.traversed), "count"},
      {"skyline.comparisons", static_cast<double>(last.comparisons), "count"},
      {"skyline.skyband_size_probes", counter("skyline.skyband_size_probes"),
       "count"},
      {"skyline.skyband_notifications",
       counter("skyline.skyband_notifications"), "count"},
      {"core.discover_us", mean_us("core.discover"), "us"},
      {"core.rank_us", mean_us("core.rank"), "us"},
      {"core.facts", static_cast<double>(last.facts), "count"},
      {"core.facts_per_traversed",
       last.traversed > 0 ? static_cast<double>(last.facts) /
                                static_cast<double>(last.traversed)
                          : 0.0,
       "ratio"},
      {"exec.batch_ms", mean_us("exec.batch") / 1e3, "ms"},
      {"exec.cpu_util", cpu / last.ingest_s, "cores"},
      {"exec.sys_share", cpu > 0 ? last.cpu_sys_s / cpu : 0.0, "ratio"},
      {"exec.ctx_switches_per_row",
       static_cast<double>(last.ctx_switches) / ops, "count"},
      {"service.publish_us", mean_us("service.publish"), "us"},
      {"query.facts", counter("query.facts"), "count"},
      {"query.band_inserts", counter("query.band_inserts"), "count"},
      {"query.shifted_records", counter("query.shifted_records"), "count"},
      {"persist.append_us", mean_us("persist.append"), "us"},
      {"persist.checkpoint_ms", mean_us("persist.checkpoint") / 1e3, "ms"},
      {"persist.wal_bytes", counter("persist.wal_bytes"), "bytes"},
      {"persist.checkpoint_bytes", counter("persist.checkpoint_bytes"),
       "bytes"},
      {"net.handler_us", counter("net.handler_us"), "us"},
      {"net.cache_hit_ratio", counter("net.cache_hit_ratio"), "ratio"},
      {"net.skyband_hits", counter("net.skyband_hits"), "count"},
      {"net.queue_us",
       query_us.empty() ? 0.0 : client_us - counter("net.handler_us"), "us"},
      {"net.errors", counter("net.errors"), "count"},
      {"arrival_p99_ms", Percentile(Pool(plain, &Round::arrival_ms), 0.99),
       "ms"},
      {"query_p50_us", Percentile(query_us, 0.50), "us"},
      {"query_p99_us", Percentile(query_us, 0.99), "us"},
      {"query_per_s",
       Median(Each(plain,
                   [](const Round& r) {
                     return static_cast<double>(r.queries) / r.ingest_s;
                   })),
       "1/s"},
      {"store_bytes_per_row",
       Median(Each(plain,
                   [](const Round& r) {
                     return r.store_bytes / static_cast<double>(r.ops);
                   })),
       "bytes"},
      {"failed_share",
       attempted > 0 ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0,
       "ratio"},
      {"host.steal_share",
       Median(Each(traced, [](const Round& r) { return r.steal_share; })),
       "ratio"},
      {"trace.overhead_ms", (traced_ingest - plain_ingest) * 1e3, "ms"},
      {"trace.overhead_share",
       plain_ingest > 0 ? (traced_ingest - plain_ingest) / plain_ingest : 0.0,
       "ratio"},
  };
  const std::map<std::string, int64_t> self = tracer.SelfNsByLayer();
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double ms =
        it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    m.push_back({std::string(layer) + ".self_ms",
                 ms / static_cast<double>(traced.size()), "ms"});
  }
  return m;
}

/// Every round of a run replays the same stream, so the facts digest must
/// repeat, and on the sequential engines so must the work counters.
std::string CheckRepeatable(const Workload& w,
                            const std::vector<const Round*>& rounds) {
  const Round& first = *rounds.front();
  for (const Round* r : rounds) {
    if (r->digest != first.digest || r->facts != first.facts) {
      return "facts digest differs between rounds";
    }
    if (w.deterministic_counters() &&
        (r->comparisons != first.comparisons ||
         r->traversed != first.traversed)) {
      return "comparisons/traversed differ between rounds";
    }
  }
  return "";
}

int Run(const Args& args) {
  for (const char* knob :
       {"SITFACT_SIMD", "SITFACT_SKYBAND_INDEX", "SITFACT_STORAGE",
        "SITFACT_STORAGE_CACHE_MB"}) {
    if (std::getenv(knob) != nullptr) {
      return Usage(std::string(knob) +
                   " is set; the benchmark runs the default engine paths");
    }
  }
  namespace fs = std::filesystem;
  const std::string work_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) return Usage("cannot create " + work_dir + ": " + ec.message());

  // Unseeded runs use the generators' own default seeds.
  const bool weather = args.workload == "weather_sharded_paged";
  const uint64_t seed =
      args.seed_set ? args.seed : (weather ? 78654321u : 20140331u);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, seed, work_dir);
  if (w == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    fs::remove_all(work_dir, ec);
    return Usage("unknown workload '" + args.workload + "'; one of:" + names);
  }

  std::unique_ptr<Tracer> tracer =
      args.trace ? std::make_unique<Tracer>() : nullptr;
  std::vector<Round> plain, traced;
  std::string error;
  const Clock::time_point start = Clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  double longest = 0;
  auto run_round = [&](Tracer* tr, std::vector<Round>* into) {
    auto round = w->RunRound(tr);
    if (!round.ok()) {
      error = round.status().ToString();
      return false;
    }
    into->push_back(std::move(round).value());
    return true;
  };
  while (plain.empty() || elapsed() + longest <= args.seconds) {
    const double t0 = elapsed();
    if (!run_round(nullptr, &plain)) break;
    if (args.trace && !run_round(tracer.get(), &traced)) break;
    longest = std::max(longest, elapsed() - t0);
  }
  const double peak_rss_mb = PeakRssMb();
  const double measured_s = elapsed();
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 error.c_str());
    fs::remove_all(work_dir, ec);
    return 1;
  }

  // Correctness gate: repeatability across rounds (traced included), then
  // the BruteForce oracle over a prefix of the first round's op stream.
  std::vector<const Round*> all;
  for (const Round& r : plain) all.push_back(&r);
  for (const Round& r : traced) all.push_back(&r);
  std::string mismatch = CheckRepeatable(*w, all);
  if (mismatch.empty()) {
    sitfact::Status oracle = w->CheckOracle(plain.front());
    if (!oracle.ok()) mismatch = oracle.ToString();
  }
  fs::remove_all(work_dir, ec);

  uint64_t attempted = 0, failed = 0;
  for (const Round* r : all) {
    attempted += r->ops + r->queries;
    failed += r->failed_ops + r->failed_queries;
  }
  const Round& first = plain.front();
  std::printf(
      "workload=%s seed=%llu rounds=%zu+%zu traced measured_s=%.1f rows=%llu "
      "facts=%llu comparisons=%llu traversed=%llu simd=%s digest=%016llx\n",
      args.workload.c_str(), static_cast<unsigned long long>(seed),
      plain.size(), traced.size(), measured_s,
      static_cast<unsigned long long>(first.ops),
      static_cast<unsigned long long>(first.facts),
      static_cast<unsigned long long>(first.comparisons),
      static_cast<unsigned long long>(first.traversed),
      sitfact::SimdTierName(sitfact::ActiveSimdTier()),
      static_cast<unsigned long long>(first.digest));
  for (const Round& r : plain) {
    std::printf(
        "  round: setup %.6f s, ingest %.3f s, %llu ops, arrival p50 %.3f / "
        "p90 %.3f / p99 %.3f ms, steal %.2f%%\n",
        r.setup_s, r.ingest_s, static_cast<unsigned long long>(r.ops),
        Percentile(r.arrival_ms, 0.50), Percentile(r.arrival_ms, 0.90),
        Percentile(r.arrival_ms, 0.99),
        r.steal_share * 100);
  }
  if (!mismatch.empty()) {
    std::printf("correctness: FAILED: %s\n", mismatch.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(plain, traced, *tracer);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(seed) + ".json";
    fs::create_directories(args.trace_dir, ec);
    std::printf("spans: %s%s\n", path.c_str(),
                tracer->WriteJson(path) ? "" : " (write failed)");
    std::printf("self time per layer and round (ms):");
    for (const auto& [layer, ns] : tracer->SelfNsByLayer()) {
      std::printf(" %s=%.3f", layer.c_str(),
                  static_cast<double>(ns) / 1e6 /
                      static_cast<double>(traced.size()));
    }
    std::printf("\n(persist.append spans include the engine apply: the "
                "WAL's own time is not separable from outside the library)\n");
  } else {
    metrics = EndToEnd(plain, peak_rss_mb);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              mismatch.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return mismatch.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, &args, &err)) {
    return perfbench::Usage(err);
  }
  return perfbench::Run(args);
}
