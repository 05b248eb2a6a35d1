// The three benchmark workloads. Each builds its row stream from the seed,
// runs it through the public API of the layers it exercises, and reports
// what one round measured; main.cc repeats rounds and aggregates. Why each
// workload exists, and which layers it loads, is in README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "core/engine.h"
#include "core/prominence.h"
#include "datagen/nba_generator.h"
#include "datagen/weather_generator.h"
#include "exec/sharded_engine.h"
#include "net/fact_server.h"
#include "net/http_client.h"
#include "net/json.h"
#include "perfbench.h"
#include "persist/durable_engine.h"
#include "relation/dataset.h"
#include "relation/relation.h"
#include "service/fact_service.h"

namespace perfbench {

using sitfact::ArrivalReport;
using sitfact::DiscoveryEngine;
using sitfact::DiscoveryOptions;
using sitfact::FactService;
using sitfact::Relation;
using sitfact::Row;
using sitfact::SkylineFact;
using sitfact::Status;
using sitfact::StatusOr;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Sizes. Each round replays the whole stream on a fresh engine; sizes are
// chosen so a round takes a few seconds on a 4-vCPU host (README.md).

constexpr double kTau = 2.0;
/// Set-ups per round; the round reports their median.
constexpr int kSetups = 31;
/// Rows replayed through BruteForce by the correctness gate.
constexpr size_t kOracleRows = 400;

constexpr int kNewsroomRows = 1000;
constexpr int kWeatherRows = 1600;
constexpr size_t kWeatherBatch = 16;
constexpr size_t kWeatherCacheBytes = 4u << 20;
constexpr int kDurableRows = 1500;
constexpr uint64_t kCheckpointEvery = 500;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Process and host accounting.

struct ProcSample {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;
  uint64_t steal = 0;  ///< /proc/stat jiffies
  uint64_t total = 0;
};

ProcSample SampleProc() {
  ProcSample s;
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) == 0) {
    s.user_s = static_cast<double>(u.ru_utime.tv_sec) +
               static_cast<double>(u.ru_utime.tv_usec) * 1e-6;
    s.sys_s = static_cast<double>(u.ru_stime.tv_sec) +
              static_cast<double>(u.ru_stime.tv_usec) * 1e-6;
    s.ctx_switches = static_cast<uint64_t>(u.ru_nvcsw + u.ru_nivcsw);
  }
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu == "cpu") {
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8; ++i) {
      uint64_t v = 0;
      if (!(stat >> v)) break;
      s.total += v;
      if (i == 7) s.steal = v;
    }
  }
  return s;
}

void AccountIngest(const ProcSample& a, const ProcSample& b, Round* r) {
  r->cpu_user_s = b.user_s - a.user_s;
  r->cpu_sys_s = b.sys_s - a.sys_s;
  r->ctx_switches = b.ctx_switches - a.ctx_switches;
  r->steal_share =
      b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                              static_cast<double>(b.total - a.total)
                        : 0.0;
}

// ---------------------------------------------------------------------------
// Digests.

uint64_t FactsHash(const std::vector<SkylineFact>& facts) {
  uint64_t h = sitfact::Mix64(facts.size());
  for (const SkylineFact& f : facts) {
    const sitfact::Constraint& c = f.constraint;
    h = sitfact::HashCombine(h, c.bound_mask());
    for (int d = 0; d < c.num_dims(); ++d) {
      if (c.IsBound(d)) h = sitfact::HashCombine(h, c.value(d));
    }
    h = sitfact::HashCombine(h, f.subspace);
  }
  return h;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Folds one report into the round: digest, fact total, oracle hashes.
void Record(const ArrivalReport& report, Round* r) {
  const uint64_t facts_hash = FactsHash(report.facts);
  uint64_t h = sitfact::HashCombine(r->digest, report.tuple);
  h = sitfact::HashCombine(h, facts_hash);
  for (const sitfact::RankedFact& rf : report.ranked) {
    h = sitfact::HashCombine(h, rf.context_size);
    h = sitfact::HashCombine(h, rf.skyline_size);
    h = sitfact::HashCombine(h, DoubleBits(rf.prominence));
  }
  r->digest = sitfact::HashCombine(h, report.prominent.size());
  r->facts += report.facts.size();
  if (r->fact_hashes.size() < kOracleRows) {
    r->fact_hashes.push_back(facts_hash);
  }
}

// ---------------------------------------------------------------------------
// Streams.

sitfact::Dataset Project(const sitfact::Dataset& full,
                         const std::vector<std::string>& dims,
                         const std::vector<std::string>& measures) {
  auto projected = full.Project(dims, measures);
  SITFACT_CHECK_MSG(projected.ok(), projected.status().ToString().c_str());
  return std::move(projected).value();
}

/// NBA box scores projected on the first d dimensions and m measures; the
/// season length keeps the generator's tuples-per-season ratio at small n,
/// as the figure benches do, so new seasons (fresh contexts) still appear.
sitfact::Dataset NbaStream(uint64_t seed, int n, int d, int m) {
  sitfact::NbaGenerator::Config cfg;
  cfg.seed = seed;
  cfg.tuples_per_season = std::max(1, n / 8);
  sitfact::NbaGenerator gen(cfg);
  return Project(gen.Generate(n), sitfact::NbaGenerator::DimensionsForD(d),
                 sitfact::NbaGenerator::MeasuresForM(m));
}

/// Weather at the Fig. 9 shape (d=5, m=7) with the figure benches' scaled
/// station count.
sitfact::Dataset WeatherStream(uint64_t seed, int n) {
  sitfact::WeatherGenerator::Config cfg;
  cfg.seed = seed;
  cfg.num_locations = 512;
  cfg.records_per_day = std::max(1, n / 24);
  sitfact::WeatherGenerator gen(cfg);
  return Project(gen.Generate(n), sitfact::WeatherGenerator::DimensionsForD(5),
                 sitfact::WeatherGenerator::MeasuresForM(7));
}

// ---------------------------------------------------------------------------
// Correctness gate shared by every workload.

Status CheckAgainstBruteForce(const sitfact::Dataset& stream,
                              const DiscoveryOptions& options,
                              const Round& round) {
  Relation relation(stream.schema());
  auto disc = DiscoveryEngine::CreateDiscoverer("BruteForce", &relation,
                                                options);
  if (!disc.ok()) return disc.status();
  DiscoveryEngine::Config cfg;
  cfg.options = options;
  cfg.tau = kTau;
  cfg.rank_facts = false;
  DiscoveryEngine oracle(&relation, std::move(disc).value(), cfg);
  const size_t n = std::min(round.fact_hashes.size(), stream.size());
  if (n == 0) return Status::Corruption("no reports recorded for the oracle");
  for (size_t i = 0; i < n; ++i) {
    const ArrivalReport report = oracle.Append(stream.rows()[i]);
    if (FactsHash(report.facts) != round.fact_hashes[i]) {
      return Status::Corruption("facts differ from BruteForce at tuple " +
                                std::to_string(report.tuple));
    }
  }
  return Status::Ok();
}

/// DiscoveryEngine::Append split into the public calls DiscoverLast makes,
/// in its order, each under its layer's span.
ArrivalReport TracedAppend(DiscoveryEngine& engine, const Row& row,
                           Tracer* tr, uint64_t op) {
  Relation& relation = engine.relation();
  {
    Scope s(tr, "relation.append", op);
    relation.Append(row);
  }
  ArrivalReport report;
  report.tuple = relation.size() - 1;
  {
    Scope s(tr, "storage.count", op);
    engine.mutable_counter().OnArrival(relation, report.tuple);
  }
  {
    Scope s(tr, "core.discover", op);
    engine.discoverer().Discover(report.tuple, &report.facts);
  }
  {
    Scope s(tr, "core.rank", op);
    sitfact::CanonicalizeFacts(&report.facts);
    sitfact::ProminenceEvaluator evaluator(
        &relation, &engine.counter(), engine.discoverer().mutable_store(),
        engine.discoverer().storage_policy());
    evaluator.set_skyband(engine.skyband_index());
    report.ranked = evaluator.RankAll(report.facts);
    report.prominent = sitfact::SelectProminent(report.ranked,
                                                engine.config().tau);
  }
  return report;
}

void StoreCounters(const sitfact::MuStore* store, Round* r) {
  if (store == nullptr) return;
  const sitfact::MuStoreStats& st = store->stats();
  r->counters["storage.bucket_reads"] = static_cast<double>(st.bucket_reads);
  r->counters["storage.bucket_writes"] =
      static_cast<double>(st.bucket_writes);
  r->counters["storage.file_reads"] = static_cast<double>(st.file_reads);
  r->counters["storage.file_writes"] = static_cast<double>(st.file_writes);
}

void EngineCounters(DiscoveryEngine& e, Round* r) {
  const sitfact::DiscoveryStats& st = e.discoverer().stats();
  r->comparisons = st.comparisons;
  r->traversed = st.constraints_traversed;
  StoreCounters(e.discoverer().store(), r);
  r->counters["storage.mu_mb"] =
      static_cast<double>(e.discoverer().ApproxMemoryBytes()) / 1e6;
  if (const sitfact::SkybandIndex* band = e.skyband_index()) {
    // Prominence denominators: bucket-size answers under Invariant 1,
    // ancestor-union answers under Invariant 2 (the STopDown default).
    r->counters["skyline.skyband_size_probes"] = static_cast<double>(
        band->stats().size_probes + band->stats().union_probes);
    r->counters["skyline.skyband_notifications"] =
        static_cast<double>(band->stats().notifications);
  }
}

void ServiceCounters(const FactService& service, Round* r) {
  const FactService::Snapshot snap = service.Acquire();
  r->counters["query.facts"] = static_cast<double>(snap.fact_count());
  r->counters["query.band_inserts"] =
      static_cast<double>(snap.skyband_stats().band_inserts);
  r->counters["query.shifted_records"] =
      static_cast<double>(snap.skyband_stats().shifted_records);
}

/// Runs `make` kSetups times, keeping the last result; returns the median
/// set-up time.
template <typename T>
double RepeatSetup(const std::function<T()>& make, std::optional<T>* out) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    out->reset();  // tear the previous one down outside the timed region
    const Clock::time_point t0 = Clock::now();
    out->emplace(make());
    times.push_back(Since(t0));
  }
  return Median(times);
}

// ---------------------------------------------------------------------------
// nba_newsroom: the paper's case study (NBA d=5 m=7, d̂=3 m̂=3) through the
// sequential STopDown engine with an in-memory µ-store, FactService
// publishing after every arrival, closed loop on one thread.

class NbaNewsroom : public Workload {
 public:
  explicit NbaNewsroom(uint64_t seed)
      : stream_(NbaStream(seed, kNewsroomRows, 5, 7)) {
    options_.max_bound_dims = 3;
    options_.max_measure_dims = 3;
  }

  StatusOr<Round> RunRound(Tracer* tr) override {
    struct Stack {
      std::unique_ptr<Relation> relation;
      std::unique_ptr<DiscoveryEngine> engine;
      std::unique_ptr<FactService> service;
    };
    Round r;
    std::optional<Stack> st;
    r.setup_s = RepeatSetup<Stack>(
        [this] {
          Stack s;
          s.relation = std::make_unique<Relation>(stream_.schema());
          auto disc = DiscoveryEngine::CreateDiscoverer(
              "STopDown", s.relation.get(), options_);
          SITFACT_CHECK(disc.ok());
          DiscoveryEngine::Config cfg;
          cfg.options = options_;
          cfg.tau = kTau;
          s.engine = std::make_unique<DiscoveryEngine>(
              s.relation.get(), std::move(disc).value(), cfg);
          FactService::Options so;
          so.entity = "player";
          s.service = std::make_unique<FactService>(s.relation.get(), so);
          return s;
        },
        &st);
    DiscoveryEngine& engine = *st->engine;
    FactService& service = *st->service;

    const ProcSample before = SampleProc();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < stream_.size(); ++i) {
      const Row& row = stream_.rows()[i];
      ArrivalReport report;
      const Clock::time_point t0 = Clock::now();
      {
        Scope root(tr, "op.arrival", i);
        report = tr != nullptr ? TracedAppend(engine, row, tr, i)
                               : engine.Append(row);
        Scope s(tr, "service.publish", i);
        service.OnArrival(report);
      }
      r.arrival_ms.push_back(Since(t0) * 1e3);
      Record(report, &r);
    }
    r.ingest_s = Since(start);
    AccountIngest(before, SampleProc(), &r);
    r.ops = stream_.size();
    EngineCounters(engine, &r);
    ServiceCounters(service, &r);
    return r;
  }

  Status CheckOracle(const Round& round) override {
    return CheckAgainstBruteForce(stream_, options_, round);
  }

 private:
  sitfact::Dataset stream_;
  DiscoveryOptions options_;
};

// ---------------------------------------------------------------------------
// weather_sharded_paged: ShardedEngine (K=4 shards, one pool thread plus the
// stealing caller) over the paged µ-store, AppendBatch of 16 rows. Two
// executors, not four: with four, host steal halved a run's throughput
// (README.md).

class WeatherShardedPaged : public Workload {
 public:
  WeatherShardedPaged(uint64_t seed, std::string work_dir)
      : stream_(WeatherStream(seed, kWeatherRows)) {
    options_.max_bound_dims = 4;
    options_.storage.backend = sitfact::StorageBackend::kPaged;
    options_.storage.cache_bytes = kWeatherCacheBytes;
    options_.storage.spill_dir = std::move(work_dir);
  }

  bool deterministic_counters() const override { return false; }

  StatusOr<Round> RunRound(Tracer* tr) override {
    struct Stack {
      std::unique_ptr<Relation> relation;
      std::unique_ptr<sitfact::ShardedEngine> engine;
    };
    Round r;
    std::optional<Stack> st;
    r.setup_s = RepeatSetup<Stack>(
        [this] {
          Stack s;
          s.relation = std::make_unique<Relation>(stream_.schema());
          sitfact::ShardedEngine::Config cfg;
          cfg.num_shards = 4;
          cfg.num_threads = 1;
          cfg.options = options_;
          cfg.tau = kTau;
          s.engine = std::make_unique<sitfact::ShardedEngine>(
              s.relation.get(), cfg);
          return s;
        },
        &st);
    sitfact::ShardedEngine& engine = *st->engine;

    const ProcSample before = SampleProc();
    const Clock::time_point start = Clock::now();
    const std::vector<Row>& rows = stream_.rows();
    for (size_t first = 0; first < rows.size(); first += kWeatherBatch) {
      const size_t n = std::min(kWeatherBatch, rows.size() - first);
      const Clock::time_point t0 = Clock::now();
      std::vector<ArrivalReport> reports;
      {
        Scope s(tr, "exec.batch", first);
        reports = engine.AppendBatch(
            std::span<const Row>(rows.data() + first, n));
      }
      const double ms = Since(t0) * 1e3;
      if (reports.size() != n) {
        return Status::Corruption("AppendBatch returned " +
                                std::to_string(reports.size()) +
                                " reports for " + std::to_string(n) +
                                " rows");
      }
      for (const ArrivalReport& report : reports) {
        r.arrival_ms.push_back(ms);
        Record(report, &r);
      }
    }
    r.ingest_s = Since(start);
    AccountIngest(before, SampleProc(), &r);
    r.ops = rows.size();
    r.comparisons = engine.stats().comparisons;
    r.traversed = engine.stats().constraints_traversed;
    StoreCounters(engine.discoverer().store(), &r);
    r.counters["storage.mu_mb"] =
        static_cast<double>(engine.ApproxMemoryBytes()) / 1e6;
    return r;
  }

  Status CheckOracle(const Round& round) override {
    DiscoveryOptions oracle = options_;
    oracle.storage = {};
    return CheckAgainstBruteForce(stream_, oracle, round);
  }

 private:
  sitfact::Dataset stream_;
  DiscoveryOptions options_;
};

// ---------------------------------------------------------------------------
// durable_serving: DurableEngine (WAL per op, Checkpoint every 500 ops)
// feeding FactService; a FactServer on its own thread answers one
// closed-loop HTTP client while one closed-loop writer ingests. The writer
// is not paced at a fixed rate, and the WAL is flushed but not fsynced per
// op: on a shared host, paced arrivals queued behind stalls and fsync
// latency followed other tenants' disk traffic, so neither gave steady
// figures (README.md).

/// The bench_serving_load request mix, offset by the seed and kept inside
/// what has been published so every request is answerable.
std::string TargetFor(uint64_t i, uint64_t arrivals, uint64_t facts) {
  switch (i % 6) {
    case 0:
      return "/topk?k=10";
    case 1:
      return "/topk?k=" + std::to_string(2 + i % 17);
    case 2:
      return "/facts_for_tuple?tuple=" +
             std::to_string(i % std::max<uint64_t>(
                                     1, std::min<uint64_t>(97, arrivals))) +
             "&k=100";
    case 3: {
      const uint64_t half = std::max<uint64_t>(1, arrivals / 2);
      return "/facts_in_window?window=" + std::to_string((i * 13) % half) +
             ":" + std::to_string(half + i % half) + "&k=50";
    }
    case 4:
      if (facts == 0) return "/topk?k=10";
      return "/explain?record=" +
             std::to_string(i % std::min<uint64_t>(64, facts));
    default:
      return "/topk?k=10&prominent_only=true";
  }
}

double JsonNumber(const sitfact::net::JsonValue& obj, const char* key) {
  const sitfact::net::JsonValue* v = obj.Find(key);
  return v != nullptr && v->type() == sitfact::net::JsonValue::Type::kNumber
             ? v->NumberAsDouble()
             : 0.0;
}

bool SamePage(const FactService::Page& a, const FactService::Page& b) {
  if (a.facts.size() != b.facts.size()) return false;
  for (size_t i = 0; i < a.facts.size(); ++i) {
    const FactService::FactView& x = a.facts[i];
    const FactService::FactView& y = b.facts[i];
    if (x.id != y.id || x.tuple != y.tuple ||
        x.arrival_seq != y.arrival_seq || !(x.fact == y.fact) ||
        x.context_size != y.context_size ||
        x.skyline_size != y.skyline_size || x.prominence != y.prominence ||
        x.prominent != y.prominent) {
      return false;
    }
  }
  return true;
}

class DurableServing : public Workload {
 public:
  DurableServing(uint64_t seed, std::string work_dir)
      : seed_(seed),
        work_dir_(std::move(work_dir)),
        stream_(NbaStream(seed, kDurableRows, 4, 4)) {}

  StatusOr<Round> RunRound(Tracer* tr) override {
    namespace fs = std::filesystem;
    namespace net = sitfact::net;
    // Each set-up opens a fresh store; the last one's is the live store.
    const std::string stores = work_dir_ + "/durable";
    int setups = 0;
    sitfact::persist::DurableOptions opts;
    opts.algorithm = "STopDown";
    opts.tau = kTau;
    FactService::Options service_opts;
    service_opts.entity = "player";

    struct Stack {
      std::unique_ptr<sitfact::persist::DurableEngine> durable;
      std::unique_ptr<FactService> service;
      std::unique_ptr<net::FactServer> server;
      std::unique_ptr<std::atomic<bool>> stop;
      std::unique_ptr<net::HttpClient> client;
      std::thread serving;
      Stack() = default;
      Stack(Stack&&) = default;
      ~Stack() {
        client.reset();
        if (serving.joinable()) {
          stop->store(true);
          serving.join();
        }
        server.reset();
        service.reset();
        durable.reset();
      }
    };
    Round r;
    std::optional<Stack> st;
    Status setup_status;
    r.setup_s = RepeatSetup<Stack>(
        [&]() -> Stack {
          Stack s;
          opts.dir = stores + "/" + std::to_string(setups++);
          auto opened = sitfact::persist::DurableEngine::Open(
              opts, stream_.schema());
          if (!opened.ok()) {
            setup_status = opened.status();
            return s;
          }
          s.durable = std::move(opened).value();
          s.service = std::make_unique<FactService>(&s.durable->relation(),
                                                    service_opts);
          net::FactServer::Options server_opts;
          server_opts.net.port = 0;
          // No relation: the where/measures grammar reads the relation,
          // which the ingest thread is appending to.
          s.server = std::make_unique<net::FactServer>(s.service.get(),
                                                       nullptr, server_opts);
          Status listening = s.server->Listen();
          if (!listening.ok()) {
            setup_status = listening;
            return s;
          }
          s.stop = std::make_unique<std::atomic<bool>>(false);
          s.server->set_external_stop(s.stop.get());
          net::FactServer* server = s.server.get();
          s.serving = std::thread([server] { (void)server->Serve(); });
          s.client =
              std::make_unique<net::HttpClient>("127.0.0.1", s.server->port());
          for (int i = 0; i < 16; ++i) {
            auto resp = s.client->Get(i % 2 == 0 ? "/healthz" : "/topk?k=10");
            if (!resp.ok() || resp.value().status != 200) {
              setup_status = Status::IoError("warm-up request failed");
              return s;
            }
          }
          return s;
        },
        &st);
    if (!setup_status.ok()) return setup_status;
    const std::string& dir = opts.dir;
    sitfact::persist::DurableEngine& durable = *st->durable;
    FactService& service = *st->service;

    // The reader: one closed-loop client for the whole ingest phase.
    std::atomic<uint64_t> published_arrivals{0};
    std::atomic<uint64_t> published_facts{0};
    std::atomic<bool> reading{true};
    std::vector<double> query_us;
    uint64_t query_failed = 0;
    const uint64_t offset = sitfact::Mix64(seed_) % 997;
    std::thread reader([&] {
      for (uint64_t i = 0; reading.load(std::memory_order_relaxed); ++i) {
        const std::string target =
            TargetFor(i + offset, published_arrivals.load(),
                      published_facts.load());
        Scope s(tr, "net.request", i);
        const Clock::time_point t0 = Clock::now();
        auto resp = st->client->Get(target);
        query_us.push_back(Since(t0) * 1e6);
        if (!resp.ok() || resp.value().status != 200) ++query_failed;
      }
    });

    uint64_t acked = 0;
    Status checkpoint;
    const ProcSample before = SampleProc();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < stream_.size() && checkpoint.ok(); ++i) {
      const Clock::time_point t0 = Clock::now();
      Scope root(tr, "op.arrival", i);
      StatusOr<ArrivalReport> appended = [&] {
        Scope s(tr, "persist.append", i);
        return durable.Append(stream_.rows()[i]);
      }();
      if (!appended.ok()) {
        ++r.failed_ops;
        continue;
      }
      {
        Scope s(tr, "service.publish", i);
        service.OnArrival(appended.value());
      }
      r.arrival_ms.push_back(Since(t0) * 1e3);
      ++acked;
      Record(appended.value(), &r);
      published_facts.store(r.facts);
      published_arrivals.store(acked);
      if ((i + 1) % kCheckpointEvery == 0) {
        Scope s(tr, "persist.checkpoint", i);
        checkpoint = durable.Checkpoint();
      }
    }
    r.ingest_s = Since(start);
    reading.store(false);
    reader.join();
    if (!checkpoint.ok()) return checkpoint;
    AccountIngest(before, SampleProc(), &r);
    r.ops = stream_.size();
    r.query_us = std::move(query_us);
    r.queries = r.query_us.size();
    r.failed_queries = query_failed;

    // Server-side counters, from the /statz endpoint.
    auto statz = st->client->Get("/statz");
    if (!statz.ok() || statz.value().status != 200) {
      return Status::IoError("/statz failed");
    }
    auto parsed = net::JsonValue::Parse(statz.value().body);
    if (!parsed.ok()) return parsed.status();
    double requests = 0, handler_us = 0, hits = 0, skyband = 0, errors = 0;
    if (const net::JsonValue* eps = parsed.value().Find("endpoints")) {
      for (const std::string& key : eps->keys()) {
        if (key == "statz" || key == "healthz") continue;
        const net::JsonValue* e = eps->Find(key);
        requests += JsonNumber(*e, "requests");
        handler_us += JsonNumber(*e, "total_micros");
        hits += JsonNumber(*e, "cache_hits");
        skyband += JsonNumber(*e, "skyband_hits");
        errors += JsonNumber(*e, "errors");
      }
    }
    if (const net::JsonValue* srv = parsed.value().Find("server")) {
      errors += JsonNumber(*srv, "protocol_errors") + JsonNumber(*srv, "shed");
    }
    r.counters["net.handler_us"] = requests > 0 ? handler_us / requests : 0;
    r.counters["net.cache_hit_ratio"] = requests > 0 ? hits / requests : 0;
    r.counters["net.skyband_hits"] = skyband;
    r.counters["net.errors"] = errors;

    EngineCounters(*durable.engine(), &r);
    ServiceCounters(service, &r);
    const FactService::Page live_page = service.TopK(10);
    st.reset();

    double wal = 0, checkpoints = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string file = entry.path().filename().string();
      const double bytes = static_cast<double>(entry.file_size());
      if (file.rfind("wal-", 0) == 0) wal += bytes;
      if (file.rfind("snapshot-", 0) == 0 || file.rfind("delta-", 0) == 0) {
        checkpoints += bytes;
      }
    }
    r.counters["persist.wal_bytes"] = wal;
    r.counters["persist.checkpoint_bytes"] = checkpoints;
    r.store_bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (entry.is_regular_file()) {
        r.store_bytes += static_cast<double>(entry.file_size());
      }
    }

    if (!reopened_) {
      Status st_reopen = CheckReopen(opts, acked, live_page);
      if (!st_reopen.ok()) return st_reopen;
      reopened_ = true;
    }
    std::error_code ec;
    fs::remove_all(stores, ec);
    return r;
  }

  Status CheckOracle(const Round& round) override {
    return CheckAgainstBruteForce(stream_, DiscoveryOptions(), round);
  }

 private:
  /// Recovery gate: the reopened store resumes after every acknowledged op
  /// and serves the live run's final TopK page.
  Status CheckReopen(const sitfact::persist::DurableOptions& opts,
                     uint64_t acked, const FactService::Page& live) {
    auto reopened =
        sitfact::persist::DurableEngine::Open(opts, stream_.schema());
    if (!reopened.ok()) return reopened.status();
    if (reopened.value()->next_seq() != acked) {
      return Status::Corruption(
          "reopened next_seq " + std::to_string(reopened.value()->next_seq()) +
          " != acknowledged ops " + std::to_string(acked));
    }
    FactService::Options so;
    so.entity = "player";
    auto rebuilt = FactService::FromDurable(reopened.value().get(), so);
    if (!rebuilt.ok()) return rebuilt.status();
    if (!SamePage(rebuilt.value()->TopK(10), live)) {
      return Status::Corruption("recovered TopK page differs from the live one");
    }
    return Status::Ok();
  }

  uint64_t seed_;
  std::string work_dir_;
  sitfact::Dataset stream_;
  bool reopened_ = false;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"nba_newsroom", "weather_sharded_paged", "durable_serving"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "nba_newsroom") return std::make_unique<NbaNewsroom>(seed);
  if (name == "weather_sharded_paged") {
    return std::make_unique<WeatherShardedPaged>(seed, work_dir);
  }
  if (name == "durable_serving") {
    return std::make_unique<DurableServing>(seed, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
