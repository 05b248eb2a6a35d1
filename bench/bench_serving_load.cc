// Serving-plane load generator: drives the epoll HTTP front end (src/net/)
// over loopback with a closed-loop and an open-loop client over a mixed
// request rotation, then a closed loop of measure-subspace-pinned TopK
// requests, and reports p50/p99/p999 request latency per phase into the
// bench trajectory.
//
// The container CI runs on a single core, so the interesting numbers here
// are LATENCY distributions and cache behavior, not throughput; every
// latency record is written with comparisons=0 so tools/bench_compare.py
// reports it without gating on it (wall-clock on shared runners is noise).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "harness.h"
#include "net/fact_server.h"
#include "net/http_client.h"
#include "service/fact_service.h"

namespace sitfact {
namespace bench {
namespace {

double Percentile(std::vector<double>* sorted_micros, double p) {
  if (sorted_micros->empty()) return 0;
  const size_t idx = std::min(
      sorted_micros->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_micros->size())));
  return (*sorted_micros)[idx];
}

struct Latencies {
  std::vector<double> micros;

  void Summarize(const std::string& phase, uint64_t requests,
                 double wall_ms) {
    std::sort(micros.begin(), micros.end());
    const double p50 = Percentile(&micros, 0.50);
    const double p99 = Percentile(&micros, 0.99);
    const double p999 = Percentile(&micros, 0.999);
    std::printf("%-12s %8llu reqs  %8.1f ms wall  p50 %7.1fus  p99 %7.1fus"
                "  p999 %7.1fus\n",
                phase.c_str(), static_cast<unsigned long long>(requests),
                wall_ms, p50, p99, p999);
    // comparisons stays 0: latency records are reported, never gated.
    RecordBench(BenchRecord{phase, requests, 0, 0, wall_ms, 0, 0});
    RecordBench(BenchRecord{phase + "_p50_us", requests, 0, 0, p50, 0, 0});
    RecordBench(BenchRecord{phase + "_p99_us", requests, 0, 0, p99, 0, 0});
    RecordBench(BenchRecord{phase + "_p999_us", requests, 0, 0, p999, 0, 0});
  }
};

/// The request mix: a rotation of cache-friendly repeats (the hot-query
/// path a dashboard hammers) and parameter-varying queries (guaranteed
/// misses), across every paginated endpoint.
std::string TargetFor(uint64_t i, uint64_t arrivals) {
  switch (i % 6) {
    case 0:
      return "/topk?k=10";  // repeats: cache hit after the first
    case 1:
      return "/topk?k=" + std::to_string(2 + i % 17);  // varying: misses
    case 2:
      return "/facts_for_tuple?tuple=" + std::to_string(i % 97) + "&k=100";
    case 3:
      return "/facts_in_window?window=" +
             std::to_string((i * 13) % (arrivals / 2)) + ":" +
             std::to_string(arrivals / 2 + i % (arrivals / 2)) + "&k=50";
    case 4:
      return "/explain?record=" + std::to_string(i % 64);
    default:
      return "/topk?k=10&prominent_only=true";
  }
}

/// Closed loop: one client, next request issued the moment the previous
/// response lands. Latency = pure service time at concurrency 1. Records
/// `phase` and returns the mean latency in µs.
double RunClosedLoop(uint16_t port, uint64_t requests,
                     const std::function<std::string(uint64_t)>& target_for,
                     const std::string& phase) {
  net::HttpClient client("127.0.0.1", port);
  Latencies lat;
  lat.micros.reserve(requests);
  WallTimer wall;
  for (uint64_t i = 0; i < requests; ++i) {
    const std::string target = target_for(i);
    const auto start = std::chrono::steady_clock::now();
    auto r = client.Get(target);
    const auto end = std::chrono::steady_clock::now();
    SITFACT_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    SITFACT_CHECK(r.value().status == 200);
    lat.micros.push_back(
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            end - start)
            .count());
  }
  const double wall_ms = wall.ElapsedMillis();
  double mean_us = 0;
  for (double us : lat.micros) mean_us += us;
  mean_us /= static_cast<double>(lat.micros.size());
  lat.Summarize(phase, requests, wall_ms);
  return mean_us;
}

}  // namespace

int Main() {
  ScopedBenchJson json("serving_load");

  const int n = std::max(64, Scaled(1500));
  const uint64_t closed_requests =
      static_cast<uint64_t>(std::max(200, Scaled(4000)));
  const uint64_t open_requests = closed_requests / 2;

  std::printf("serving_load: n=%d closed=%llu open=%llu\n", n,
              static_cast<unsigned long long>(closed_requests),
              static_cast<unsigned long long>(open_requests));

  // Ingest an NBA stream, then freeze: the load phases measure the serving
  // plane, not discovery.
  Dataset data = MakeNbaData(n, 4, 4);
  Relation relation(data.schema());
  auto disc_or =
      DiscoveryEngine::CreateDiscoverer("STopDown", &relation, {});
  SITFACT_CHECK(disc_or.ok());
  DiscoveryEngine::Config config;
  config.tau = 2.0;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);
  FactService service(&relation);
  {
    WallTimer ingest;
    for (const Row& row : data.rows()) {
      service.OnArrival(engine.Append(row));
    }
    RecordBench(BenchRecord{"ingest", static_cast<uint64_t>(n), 4, 4,
                            ingest.ElapsedMillis(), 0, 0});
  }
  const uint64_t arrivals = service.Acquire().arrivals();

  net::FactServer::Options options;
  options.net.port = 0;
  net::FactServer server(&service, &relation, options);
  Status listening = server.Listen();
  SITFACT_CHECK_MSG(listening.ok(), listening.ToString().c_str());
  std::atomic<bool> stop{false};
  server.set_external_stop(&stop);
  std::thread serving([&server] { (void)server.Serve(); });

  {
    // Warm the path (connection setup, first-touch allocations, the hot
    // cache entries) before anything is measured.
    net::HttpClient warm("127.0.0.1", server.port());
    for (uint64_t i = 0; i < 64; ++i) {
      auto r = warm.Get(TargetFor(i, arrivals));
      SITFACT_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      SITFACT_CHECK(r.value().status == 200);
    }
  }

  const double closed_mean_us = RunClosedLoop(
      server.port(), closed_requests,
      [arrivals](uint64_t i) { return TargetFor(i, arrivals); },
      "closed_loop");

  // Open loop: arrivals scheduled on a fixed cadence at ~50% of the
  // closed-loop service rate; latency is measured from the SCHEDULED start,
  // so queueing delay (falling behind the cadence) is charged to the
  // request — the coordinated-omission-free number.
  {
    const double interval_us = std::max(closed_mean_us * 2.0, 10.0);
    net::HttpClient client("127.0.0.1", server.port());
    Latencies lat;
    lat.micros.reserve(open_requests);
    WallTimer wall;
    const auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < open_requests; ++i) {
      const auto scheduled =
          t0 + std::chrono::microseconds(
                   static_cast<int64_t>(interval_us * static_cast<double>(i)));
      std::this_thread::sleep_until(scheduled);
      auto r = client.Get(TargetFor(i, arrivals));
      const auto end = std::chrono::steady_clock::now();
      SITFACT_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      SITFACT_CHECK(r.value().status == 200);
      lat.micros.push_back(
          std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
              end - scheduled)
              .count());
    }
    lat.Summarize("open_loop", open_requests, wall.ElapsedMillis());
  }

  stop = true;
  serving.join();

  // Shape-pinned closed loop: TopK(10) of one measure's subspace, rotating
  // over the measures, against a server with its response cache off so
  // every request runs the index's filtered bucket walk.
  {
    net::FactServer::Options uncached = options;
    uncached.cache_capacity = 0;
    net::FactServer shaped_server(&service, &relation, uncached);
    Status shaped_listening = shaped_server.Listen();
    SITFACT_CHECK_MSG(shaped_listening.ok(),
                      shaped_listening.ToString().c_str());
    std::atomic<bool> shaped_stop{false};
    shaped_server.set_external_stop(&shaped_stop);
    std::thread shaped_serving([&shaped_server] {
      (void)shaped_server.Serve();
    });
    const Schema& schema = relation.schema();
    RunClosedLoop(
        shaped_server.port(), closed_requests,
        [&schema](uint64_t i) {
          return "/topk?k=10&measures=" +
                 schema.measure(static_cast<int>(i % schema.num_measures()))
                     .name;
        },
        "closed_loop_shaped");
    shaped_stop = true;
    shaped_serving.join();
  }

  const net::EpollServer::Stats& stats = server.net_stats();
  std::printf("server: %llu requests over %llu connections, %llu shed\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.shed));
  return 0;
}

}  // namespace bench
}  // namespace sitfact

int main(int argc, char** argv) {
  sitfact::bench::InitBenchOutput(&argc, argv);
  return sitfact::bench::Main();
}
