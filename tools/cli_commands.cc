#include "cli_commands.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/narrator.h"
#include "exec/sharded_engine.h"
#include "datagen/nba_generator.h"
#include "datagen/stock_generator.h"
#include "datagen/weather_generator.h"
#include "io/csv_table.h"
#include "io/snapshot.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "net/fact_server.h"
#include "net/json.h"
#include "query/fact_index.h"
#include "query/skyline_query.h"
#include "relation/dataset.h"
#include "service/fact_feed.h"
#include "service/fact_service.h"
#include "service/filter_parse.h"
#include "service/query_api.h"
#include "storage/storage_options.h"

namespace sitfact {
namespace cli {

namespace {

/// Parses a measure list "points:+,fouls:-,assists" (default direction +).
StatusOr<std::vector<MeasureAttribute>> ParseMeasureSpecs(
    const std::string& spec) {
  std::vector<MeasureAttribute> out;
  for (const std::string& token : SplitList(spec)) {
    MeasureAttribute m;
    size_t colon = token.rfind(':');
    if (colon == std::string::npos) {
      m.name = token;
      m.direction = Direction::kLargerIsBetter;
    } else {
      m.name = token.substr(0, colon);
      std::string dir = token.substr(colon + 1);
      if (dir == "+") {
        m.direction = Direction::kLargerIsBetter;
      } else if (dir == "-") {
        m.direction = Direction::kSmallerIsBetter;
      } else {
        return Status::InvalidArgument("bad measure direction '" + dir +
                                       "' (use + or -)");
      }
    }
    if (m.name.empty()) {
      return Status::InvalidArgument("empty measure name in --measures");
    }
    out.push_back(std::move(m));
  }
  if (out.empty()) {
    return Status::InvalidArgument("--measures must name at least one column");
  }
  return out;
}

/// Builds the schema named by --dims / --measures.
StatusOr<Schema> SchemaFromFlags(const Args& args) {
  std::vector<DimensionAttribute> dims;
  for (const std::string& name : SplitList(args.Get("dims"))) {
    dims.push_back({name});
  }
  if (dims.empty()) {
    return Status::InvalidArgument("--dims must name at least one column");
  }
  auto meas_or = ParseMeasureSpecs(args.Get("measures"));
  if (!meas_or.ok()) return meas_or.status();
  return Schema::Create(std::move(dims), std::move(meas_or).value());
}

/// Loads --csv into a Dataset shaped by --dims/--measures.
StatusOr<Dataset> LoadCsvFlag(const Args& args) {
  const std::string path = args.Get("csv");
  if (path.empty()) return Status::InvalidArgument("--csv is required");
  auto schema_or = SchemaFromFlags(args);
  if (!schema_or.ok()) return schema_or.status();
  auto table_or = CsvTable::Read(path);
  if (!table_or.ok()) return table_or.status();
  return DatasetFromCsvTable(table_or.value(), schema_or.value());
}

std::string TempStoreDir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("sitfact_cli_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

}  // namespace

int Args::GetInt(const std::string& name, int fallback) const {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : std::atoi(it->second.c_str());
}

double Args::GetDouble(const std::string& name, double fallback) const {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : std::atof(it->second.c_str());
}

Status ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 2) {
    return Status::InvalidArgument("missing command");
  }
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value = "true";  // bare flags act as booleans
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    out->flags[name] = value;
  }
  return Status::Ok();
}

namespace {

using FlagSet = std::set<std::string>;

FlagSet Flags(std::initializer_list<std::initializer_list<const char*>> parts) {
  FlagSet out;
  for (const auto& part : parts) out.insert(part.begin(), part.end());
  return out;
}

/// The flags each command reads, itself or through the helpers it calls.
/// Keep in step with the Run* functions below.
const std::map<std::string, FlagSet>& CommandFlags() {
  // Read by LoadCsvFlag, ApplyStorageFlags, DurableOptionsFromFlags,
  // StreamIntoDurable (with MakeNarrator) and ParseFactsFlags.
  static const auto csv = {"csv", "dims", "measures"};
  static const auto storage = {"storage", "cache-mb", "spill-dir"};
  static const auto durable = {"dir",     "every",  "sync",       "algorithm",
                               "dhat",    "mhat",   "tau",        "replay",
                               "threads", "shards", "full-every", "no-delta"};
  static const auto stream = {"entity", "top", "quiet"};
  static const auto facts_query = {"k",      "page",     "format",
                                   "where",  "subspace", "window",
                                   "min-prominence", "prominent-only"};
  static const std::map<std::string, FlagSet> flags{
      {"generate", Flags({{"dataset", "rows", "out", "seed"}})},
      {"discover",
       Flags({csv, storage, stream,
              {"dhat", "mhat", "threads", "shards", "algorithm", "tau",
               "save-snapshot"}})},
      {"query", Flags({csv, {"where", "subspace"}})},
      {"facts",
       Flags({csv, storage, durable, facts_query,
              {"entity", "watch", "poll-ms"}})},
      {"serve",
       Flags({csv, storage,
              {"dhat", "mhat", "entity", "algorithm", "tau", "host", "port",
               "max-connections", "cache", "port-file"}})},
      {"resume",
       Flags({storage,
              {"snapshot", "algorithm", "replay", "csv", "top", "quiet"}})},
      {"checkpoint", Flags({csv, storage, durable, stream, {"no-final"}})},
      {"restore", Flags({storage, durable, stream, {"csv", "no-final"}})},
      {"wal-dump", Flags({{"wal", "dir", "limit"}})},
  };
  return flags;
}

}  // namespace

Status CheckFlags(const Args& args) {
  const auto& commands = CommandFlags();
  const auto command = commands.find(args.command);
  if (command == commands.end()) return Status::Ok();
  for (const auto& [name, value] : args.flags) {
    if (!command->second.contains(name)) {
      return Status::InvalidArgument("unknown flag --" + name + " for " +
                                     args.command);
    }
  }
  return Status::Ok();
}

int PrintUsage(const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr, R"(sitfact_cli — incremental situational-fact discovery

USAGE
  sitfact_cli generate --dataset nba|weather|stock --rows N --out FILE
                       [--seed S]
  sitfact_cli discover --csv FILE --dims d1,d2,... --measures m1:+,m2:-,...
                       [--algorithm STopDown] [--dhat K] [--mhat K]
                       [--tau T] [--top K] [--entity DIM]
                       [--threads N] [--shards K]
                       [--storage auto|memory|paged] [--cache-mb N]
                       [--spill-dir DIR]
                       [--save-snapshot FILE] [--quiet]
  sitfact_cli query    --csv FILE --dims ... --measures ...
                       [--where d1=v1,d2=v2] [--subspace m1,m2]
  sitfact_cli facts    (--csv FILE --dims ... --measures ... | --dir DIR)
                       [--k N] [--page N] [--where d1=v1,...]
                       [--subspace m1,m2] [--min-prominence P]
                       [--window FIRST:LAST] [--prominent-only]
                       [--entity DIM] [--tau T] [--format text|json]
                       [--algorithm A | --threads N [--shards K]]
                       [--watch [--poll-ms MS]] [--replay]
  sitfact_cli serve    --csv FILE --dims ... --measures ...
                       [--port P] [--host H] [--port-file FILE]
                       [--max-connections N] [--cache N]
                       [--algorithm A] [--tau T] [--entity DIM]
  sitfact_cli resume   --snapshot FILE [--csv FILE] [--top K] [--quiet]
                       [--algorithm NAME] [--replay]
  sitfact_cli checkpoint --dir DIR [--csv FILE --dims ... --measures ...]
                       [--algorithm A | --threads N [--shards K]]
                       [--tau T] [--every N] [--sync] [--no-final]
                       [--full-every N] [--no-delta]
                       [--top K] [--quiet]
  sitfact_cli restore  --dir DIR [--csv FILE] [--threads N [--shards K]]
                       [--every N] [--no-final] [--top K] [--quiet]
                       [--replay]
  sitfact_cli wal-dump (--wal FILE | --dir DIR) [--limit N]

NOTES
  Every command rejects a flag it does not read (exit 2), so a misspelt
  flag fails instead of being ignored.
  Measures take an optional direction suffix: "points:+" (larger is better,
  the default) or "fouls:-" (smaller is better).
  discover prints, per arrival, the most prominent constraint-measure pairs
  that admit the new row into a contextual skyline (tau filters weak facts).
  --threads/--shards route discover through the sharded parallel engine
  (identical output, see docs/parallelism.md); --shards defaults to
  2*threads. The sharded engine has its own algorithm, so --algorithm does
  not combine with it.
  facts serves discovered facts through the snapshot-isolated FactService
  (docs/query_api.md): top-k by at-arrival prominence with filters and
  cursor pagination (--page). --watch queries the live index while the
  stream ingests; --dir recovers a durable store and serves immediately
  (no CSV — the facts come from the recovered history).
  serve ingests the CSV, then answers HTTP queries (docs/serving.md): the
  same top-k/filter/pagination surface as facts, over a single-threaded
  epoll loop with keep-alive, a per-epoch response cache, and bounded
  admission (--max-connections; overload answers 429 + Retry-After).
  --port 0 picks a free port; --port-file publishes the choice to scripts.
  facts --format json prints the same serialized QueryResponse the server
  sends, byte for byte — the two surfaces share one query API and one
  serializer (docs/query_api.md).
  checkpoint/restore manage a durable store (docs/persistence.md): every
  ingested row is WAL-logged before discovery, --every N snapshots the
  engine every N ops, and restore recovers from the newest valid snapshot
  plus the WAL tail — --no-final on checkpoint leaves the tail for restore
  to replay, which is how a crash looks on disk. Checkpoints between full
  snapshots are bucket-granular deltas (every --full-every N'th is full;
  --no-delta forces full snapshots only).
  --storage picks the µ-store backend for any engine-building command:
  "paged" spills bucket runs to disk behind a page cache capped at
  --cache-mb (files under --spill-dir), trading bounded memory for I/O;
  "auto" (the default) resolves SITFACT_STORAGE / SITFACT_STORAGE_CACHE_MB.
)");
  return 2;
}

int RunGenerate(const Args& args) {
  const std::string kind = args.Get("dataset", "nba");
  const int rows = args.GetInt("rows", 1000);
  const std::string out = args.Get("out");
  if (out.empty()) return PrintUsage("--out is required");
  if (rows <= 0) return PrintUsage("--rows must be positive");
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 0));

  Dataset data{Schema()};
  if (kind == "nba") {
    NbaGenerator::Config cfg;
    if (seed != 0) cfg.seed = seed;
    cfg.tuples_per_season = rows > 8 ? rows / 8 : 1;
    data = NbaGenerator(cfg).Generate(rows);
  } else if (kind == "weather") {
    WeatherGenerator::Config cfg;
    if (seed != 0) cfg.seed = seed;
    cfg.num_locations = 256;
    cfg.records_per_day = rows > 24 ? rows / 24 : 1;
    data = WeatherGenerator(cfg).Generate(rows);
  } else if (kind == "stock") {
    StockGenerator::Config cfg;
    if (seed != 0) cfg.seed = seed;
    data = StockGenerator(cfg).Generate(rows);
  } else {
    return PrintUsage("unknown --dataset (use nba, weather or stock)");
  }

  Status st = data.WriteCsv(out);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d %s rows to %s\n", rows, kind.c_str(), out.c_str());
  return 0;
}

namespace {

/// Shared per-arrival narration + end-of-stream summary for both discover
/// paths — the sharded engine's whole contract is output identical to the
/// sequential engine's, so there must be exactly one printer.
class DiscoverPrinter {
 public:
  DiscoverPrinter(const FactNarrator* narrator, int top, bool quiet)
      : narrator_(narrator), top_(top), quiet_(quiet) {}

  void OnReport(const ArrivalReport& report) {
    total_facts_ += report.facts.size();
    if (report.prominent.empty()) return;
    ++arrivals_with_prominent_;
    if (quiet_) return;
    std::printf("tuple %llu:\n",
                static_cast<unsigned long long>(report.tuple));
    int shown = 0;
    for (const RankedFact& rf : report.prominent) {
      if (shown++ >= top_) break;
      std::printf("  %s\n", narrator_->Narrate(report.tuple, rf).c_str());
    }
  }

  /// `engine_label` goes after "algorithm=" in the summary line.
  void PrintSummary(size_t rows, double tau,
                    const std::string& engine_label) const {
    std::printf(
        "processed %zu rows: %llu facts total, %llu arrivals with prominent "
        "facts (tau=%.1f, algorithm=%s)\n",
        rows, static_cast<unsigned long long>(total_facts_),
        static_cast<unsigned long long>(arrivals_with_prominent_), tau,
        engine_label.c_str());
  }

 private:
  const FactNarrator* narrator_;
  int top_;
  bool quiet_;
  uint64_t total_facts_ = 0;
  uint64_t arrivals_with_prominent_ = 0;
};

/// --storage / --cache-mb / --spill-dir: µ-store backend selection, shared
/// by every engine-building command. "paged" spills bucket runs to disk
/// behind a bounded page cache (docs/architecture.md); unset flags leave
/// the kAuto default, which the factory resolves against SITFACT_STORAGE.
Status ApplyStorageFlags(const Args& args, StorageConfig* storage) {
  if (args.Has("storage")) {
    auto backend_or = ParseStorageBackend(args.Get("storage"));
    if (!backend_or.ok()) return backend_or.status();
    storage->backend = backend_or.value();
  }
  if (args.Has("cache-mb")) {
    const int mb = args.GetInt("cache-mb", 0);
    if (mb <= 0) {
      return Status::InvalidArgument("--cache-mb must be a positive integer");
    }
    storage->cache_bytes = static_cast<size_t>(mb) << 20;
  }
  if (args.Has("spill-dir")) storage->spill_dir = args.Get("spill-dir");
  return Status::Ok();
}

/// Builds the narrator shared by both discover paths; returns false (after
/// printing usage) when --entity names no dimension.
bool MakeNarrator(const Args& args, const Dataset& data, Relation* relation,
                  std::unique_ptr<FactNarrator>* narrator) {
  int entity_dim = -1;
  if (args.Has("entity")) {
    entity_dim = data.schema().DimensionIndex(args.Get("entity"));
    if (entity_dim < 0) return false;
  }
  *narrator = std::make_unique<FactNarrator>(relation, entity_dim);
  return true;
}

/// `discover --threads N`: the sharded parallel engine. Same per-arrival
/// output as the sequential path (the engines are differentially tested for
/// equality); rows are fed in batches so discovery of arrival i+1 overlaps
/// the merge of arrival i.
int RunDiscoverSharded(const Args& args, const Dataset& data,
                       const DiscoveryOptions& options) {
  if (args.Has("algorithm")) {
    return PrintUsage(
        "--algorithm does not combine with --threads/--shards (the sharded "
        "engine is its own algorithm)");
  }
  const int threads = args.GetInt("threads", 1);
  if (threads < 1) return PrintUsage("--threads must be >= 1");
  const int shards = args.GetInt("shards", threads > 1 ? 2 * threads : 4);
  if (shards < 1 || shards > ShardedDiscoverer::kMaxShards) {
    return PrintUsage("--shards must be in [1, " +
                      std::to_string(ShardedDiscoverer::kMaxShards) + "]");
  }

  Relation relation(data.schema());
  ShardedEngine::Config config;
  config.num_shards = shards;
  config.num_threads = threads;
  config.options = options;
  config.tau = args.GetDouble("tau", 2.0);
  ShardedEngine engine(&relation, config);

  std::unique_ptr<FactNarrator> narrator;
  if (!MakeNarrator(args, data, &relation, &narrator)) {
    return PrintUsage("--entity names no dimension");
  }
  DiscoverPrinter printer(narrator.get(), args.GetInt("top", 3),
                          args.Has("quiet"));

  constexpr size_t kBatch = 256;
  const std::vector<Row>& rows = data.rows();
  for (size_t begin = 0; begin < rows.size(); begin += kBatch) {
    size_t count = std::min(kBatch, rows.size() - begin);
    for (const ArrivalReport& report : engine.AppendBatch(
             std::span<const Row>(rows.data() + begin, count))) {
      printer.OnReport(report);
    }
  }
  printer.PrintSummary(
      rows.size(), config.tau,
      "Sharded, shards=" +
          std::to_string(engine.discoverer().num_shards()) +
          ", threads=" + std::to_string(engine.discoverer().num_threads()));

  if (args.Has("save-snapshot")) {
    Status st = SaveEngineSnapshot(engine, args.Get("save-snapshot"));
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("snapshot saved to %s\n", args.Get("save-snapshot").c_str());
  }
  return 0;
}

}  // namespace

int RunDiscover(const Args& args) {
  auto data_or = LoadCsvFlag(args);
  if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
  const Dataset& data = data_or.value();

  DiscoveryOptions options;
  options.max_bound_dims = args.GetInt("dhat", -1);
  options.max_measure_dims = args.GetInt("mhat", -1);
  if (Status st = ApplyStorageFlags(args, &options.storage); !st.ok()) {
    return PrintUsage(st.message());
  }

  // Any explicit --threads/--shards goes to the sharded path, which owns
  // their validation (so `--threads 0` errors instead of silently running
  // the sequential engine).
  if (args.Has("threads") || args.Has("shards")) {
    return RunDiscoverSharded(args, data, options);
  }

  const std::string algorithm = args.Get("algorithm", "STopDown");

  Relation relation(data.schema());
  std::string store_dir;
  if (algorithm.rfind("FS", 0) == 0) store_dir = TempStoreDir("discover");
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, &relation,
                                                   options, store_dir);
  if (!disc_or.ok()) return PrintUsage(disc_or.status().ToString());

  DiscoveryEngine::Config config;
  config.options = options;
  config.tau = args.GetDouble("tau", 2.0);
  config.rank_facts = disc_or.value()->store() != nullptr;
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);

  std::unique_ptr<FactNarrator> narrator;
  if (!MakeNarrator(args, data, &relation, &narrator)) {
    return PrintUsage("--entity names no dimension");
  }
  DiscoverPrinter printer(narrator.get(), args.GetInt("top", 3),
                          args.Has("quiet"));
  for (const Row& row : data.rows()) {
    printer.OnReport(engine.Append(row));
  }
  printer.PrintSummary(data.rows().size(), config.tau, algorithm);
  if (!config.rank_facts) {
    std::printf(
        "note: %s keeps no µ-store, so prominence ranking is unavailable; "
        "facts were discovered but not ranked\n",
        algorithm.c_str());
  }

  if (args.Has("save-snapshot")) {
    Status st = SaveEngineSnapshot(engine, args.Get("save-snapshot"));
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("snapshot saved to %s\n", args.Get("save-snapshot").c_str());
  }
  return 0;
}

int RunQuery(const Args& args) {
  auto data_or = LoadCsvFlag(args);
  if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
  const Dataset& data = data_or.value();
  const Schema& schema = data.schema();

  Relation relation(schema);
  for (const Row& row : data.rows()) relation.Append(row);

  // --where d=v,...: build the constraint (grammar shared with the server,
  // src/service/filter_parse.h).
  std::string empty_note;
  auto constraint_or =
      ParseWhereConstraint(args.Get("where"), relation, &empty_note);
  if (!constraint_or.ok()) {
    return PrintUsage(constraint_or.status().message());
  }
  if (!empty_note.empty()) {
    std::printf("empty context: %s\n", empty_note.c_str());
    return 0;
  }
  Constraint constraint = constraint_or.value();

  // --subspace m1,m2 (default: all measures).
  MeasureMask subspace = schema.FullMeasureMask();
  if (args.Has("subspace")) {
    auto subspace_or = ParseSubspaceList(args.Get("subspace"), schema);
    if (!subspace_or.ok()) return PrintUsage(subspace_or.status().message());
    subspace = subspace_or.value();
  }

  SkylineQueryResult result =
      EvaluateContextualSkyline(relation, constraint, subspace);

  std::printf("context %s has %llu tuples, skyline %zu (%llu comparisons)\n",
              constraint.ToPredicateString(relation).c_str(),
              static_cast<unsigned long long>(result.context_size),
              result.skyline.size(),
              static_cast<unsigned long long>(result.comparisons));
  for (TupleId t : result.skyline) {
    std::string line = "  #" + std::to_string(t);
    for (int d = 0; d < schema.num_dimensions(); ++d) {
      line += " " + relation.DimString(t, d);
    }
    line += " |";
    for (int j = 0; j < schema.num_measures(); ++j) {
      if ((subspace >> j) & 1u) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " %s=%g",
                      schema.measure(j).name.c_str(), relation.measure(t, j));
        line += buf;
      }
    }
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

int RunResume(const Args& args) {
  const std::string path = args.Get("snapshot");
  if (path.empty()) return PrintUsage("--snapshot is required");

  SnapshotLoadOptions load_options;
  load_options.file_store_dir = TempStoreDir("resume");
  load_options.algorithm_override = args.Get("algorithm");
  load_options.allow_replay_rebuild = args.Has("replay");
  if (Status st = ApplyStorageFlags(args, &load_options.storage); !st.ok()) {
    return PrintUsage(st.message());
  }
  auto restored_or = LoadEngineSnapshot(path, load_options);
  if (!restored_or.ok()) {
    std::fprintf(stderr, "%s\n", restored_or.status().ToString().c_str());
    return 1;
  }
  RestoredEngine restored = std::move(restored_or).value();
  std::printf("restored %s engine with %u tuples (%u live)\n",
              std::string(restored.engine->discoverer().name()).c_str(),
              restored.relation->size(), restored.relation->live_size());

  if (!args.Has("csv")) return 0;

  // Continue the stream: the CSV must carry the snapshot's schema columns.
  auto table_or = CsvTable::Read(args.Get("csv"));
  if (!table_or.ok()) return PrintUsage(table_or.status().ToString());
  auto data_or =
      DatasetFromCsvTable(table_or.value(), restored.relation->schema());
  if (!data_or.ok()) return PrintUsage(data_or.status().ToString());

  const int top = args.GetInt("top", 3);
  const bool quiet = args.Has("quiet");
  FactNarrator narrator(restored.relation.get(), -1);
  for (const Row& row : data_or.value().rows()) {
    ArrivalReport report = restored.engine->Append(row);
    if (quiet || report.prominent.empty()) continue;
    std::printf("tuple %llu:\n",
                static_cast<unsigned long long>(report.tuple));
    int shown = 0;
    for (const RankedFact& rf : report.prominent) {
      if (shown++ >= top) break;
      std::printf("  %s\n", narrator.Narrate(report.tuple, rf).c_str());
    }
  }
  std::printf("resumed stream complete; relation now has %u tuples\n",
              restored.relation->size());
  return 0;
}

namespace {

/// Durability knobs shared by checkpoint and restore.
StatusOr<persist::DurableOptions> DurableOptionsFromFlags(const Args& args) {
  persist::DurableOptions opts;
  opts.dir = args.Get("dir");
  opts.checkpoint_every = static_cast<uint64_t>(args.GetInt("every", 0));
  opts.sync_every_op = args.Has("sync");
  opts.algorithm = args.Get("algorithm", "STopDown");
  opts.discovery.max_bound_dims = args.GetInt("dhat", -1);
  opts.discovery.max_measure_dims = args.GetInt("mhat", -1);
  if (Status st = ApplyStorageFlags(args, &opts.discovery.storage);
      !st.ok()) {
    return st;
  }
  opts.tau = args.GetDouble("tau", 2.0);
  opts.allow_replay_rebuild = args.Has("replay");
  if (args.Has("full-every")) {
    opts.full_snapshot_every = args.GetInt("full-every", 8);
  }
  if (args.Has("no-delta")) opts.delta_checkpoints = false;
  if (args.Has("threads") || args.Has("shards")) {
    const int threads = args.GetInt("threads", 1);
    opts.num_threads = threads;
    opts.num_shards = args.GetInt("shards", threads > 1 ? 2 * threads : 4);
  }
  // file_store_dir is left empty: DurableEngine defaults it to
  // <dir>/fs_store so FS-algorithm stores are self-contained.
  return opts;
}

/// Streams --csv rows through the durable engine with the same per-arrival
/// narration as `discover` (checkpoint + restore must concatenate into the
/// uninterrupted run's output — tests/smoke/cli_smoke.sh diffs exactly
/// that). Returns an exit code.
int StreamIntoDurable(const Args& args, persist::DurableEngine* durable,
                      const Dataset& data) {
  std::unique_ptr<FactNarrator> narrator;
  if (!MakeNarrator(args, data, &durable->relation(), &narrator)) {
    return PrintUsage("--entity names no dimension");
  }
  DiscoverPrinter printer(narrator.get(), args.GetInt("top", 3),
                          args.Has("quiet"));
  for (const Row& row : data.rows()) {
    auto report_or = durable->Append(row);
    if (!report_or.ok()) {
      std::fprintf(stderr, "durable append failed: %s\n",
                   report_or.status().ToString().c_str());
      return 1;
    }
    printer.OnReport(report_or.value());
  }
  const double tau = durable->engine() != nullptr
                         ? durable->engine()->config().tau
                         : durable->sharded_engine()->config().tau;
  printer.PrintSummary(data.rows().size(), tau,
                       durable->algorithm() + " (durable)");
  return 0;
}

/// Parsed query flags for `facts`; --where needs the ingested relation's
/// dictionaries, so parsing happens after the stream is drained.
struct FactsQueryFlags {
  size_t k = 10;
  size_t page = 0;  // 0 = one page of k; otherwise cursor-paginate
  FactFilter filter;
  std::string empty_note;  // --where named a value that never occurs
};

StatusOr<FactsQueryFlags> ParseFactsFlags(const Args& args,
                                          const Relation& relation) {
  FactsQueryFlags out;
  const int k = args.GetInt("k", 10);
  if (k <= 0) return Status::InvalidArgument("--k must be positive");
  out.k = static_cast<size_t>(k);
  const int page = args.GetInt("page", 0);
  if (page < 0) return Status::InvalidArgument("--page must be >= 0");
  out.page = static_cast<size_t>(page);
  const std::string format = args.Get("format", "text");
  if (format != "text" && format != "json") {
    return Status::InvalidArgument("--format must be text or json");
  }
  // The filter grammar is shared verbatim with the HTTP server
  // (src/service/filter_parse.h) — one parser, one set of error messages.
  FactFilterSpec spec;
  spec.where = args.Get("where");
  spec.subspace = args.Get("subspace");
  spec.window = args.Get("window");
  spec.min_prominence = args.GetDouble("min-prominence", 0.0);
  spec.prominent_only = args.Has("prominent-only");
  auto filter_or = ParseFactFilter(spec, relation, &out.empty_note);
  if (!filter_or.ok()) return filter_or.status();
  out.filter = std::move(filter_or).value();
  return out;
}

/// `facts --format json`: the canonical serialized QueryResponse for the
/// equivalent TopK request — byte-identical to what the HTTP server
/// answers for the same query at the same epoch (tests/smoke diff this).
void PrintFactsJson(const FactService::Snapshot& snap,
                    const FactsQueryFlags& flags) {
  QueryResponse response;
  if (flags.empty_note.empty()) {
    QueryRequest request;
    request.kind = QueryKind::kTopK;
    request.k = flags.k;
    request.filter = flags.filter;
    auto response_or = ExecuteQuery(snap, request);
    if (!response_or.ok()) {
      std::printf("%s\n",
                  net::SerializeErrorBody(response_or.status()).c_str());
      return;
    }
    response = std::move(response_or).value();
  } else {
    // Provably empty context: an empty page at the current epoch, exactly
    // what the server answers.
    response.epoch = snap.epoch();
  }
  std::printf("%s\n", net::SerializeResponse(response).c_str());
}

/// Prints up to `flags.k` TopK facts, cursor-paginating when --page is set.
void PrintFactPages(const FactService::Snapshot& snap,
                    const FactsQueryFlags& flags) {
  std::printf("epoch %llu: %zu facts indexed over %llu arrivals\n",
              static_cast<unsigned long long>(snap.epoch()),
              snap.fact_count(),
              static_cast<unsigned long long>(snap.arrivals()));
  if (!flags.empty_note.empty()) {
    std::printf("no facts: %s\n", flags.empty_note.c_str());
    return;
  }
  const size_t page_size = flags.page == 0 ? flags.k : flags.page;
  size_t printed = 0;
  std::optional<TopKCursor> cursor;
  while (printed < flags.k) {
    FactService::Page page = snap.TopK(
        std::min(page_size, flags.k - printed), flags.filter, cursor);
    if (page.facts.empty()) break;
    if (flags.page != 0 && printed > 0) {
      std::printf("  -- next page (cursor: prominence %.2f, record %u) --\n",
                  cursor->prominence, cursor->record_id);
    }
    for (const FactService::FactView& view : page.facts) {
      std::printf("%3zu. %s\n", ++printed, snap.Explain(view).c_str());
    }
    if (!page.next.has_value()) break;
    cursor = page.next;
  }
  if (printed == 0) std::printf("no facts match the filter\n");
}

/// `facts --dir`: recover a durable store and serve immediately — the
/// "crashed newsroom process comes back and answers queries" path.
int RunFactsFromDurable(const Args& args) {
  auto opts_or = DurableOptionsFromFlags(args);
  if (!opts_or.ok()) return PrintUsage(opts_or.status().message());
  persist::DurableOptions opts = std::move(opts_or).value();
  auto durable_or = persist::DurableEngine::Open(opts, Schema());
  if (!durable_or.ok()) {
    std::fprintf(stderr, "%s\n", durable_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<persist::DurableEngine> durable =
      std::move(durable_or).value();

  // Flags are validated before the (stream-length) index rebuild so a typo
  // costs nothing.
  auto flags_or = ParseFactsFlags(args, durable->relation());
  if (!flags_or.ok()) return PrintUsage(flags_or.status().message());

  FactService::Options service_options;
  service_options.entity = args.Get("entity");
  if (!service_options.entity.empty() &&
      durable->relation().schema().DimensionIndex(service_options.entity) <
          0) {
    return PrintUsage("--entity names no dimension");
  }
  auto service_or = FactService::FromDurable(durable.get(), service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "index rebuild failed: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  if (args.Get("format", "text") == "json") {
    PrintFactsJson(service_or.value()->Acquire(), flags_or.value());
    return 0;
  }
  std::printf("recovered %s store at seq %llu; index rebuilt, serving\n",
              durable->algorithm().c_str(),
              static_cast<unsigned long long>(durable->next_seq()));
  PrintFactPages(service_or.value()->Acquire(), flags_or.value());
  return 0;
}

}  // namespace

int RunFacts(const Args& args) {
  if (args.Has("dir")) {
    if (args.Has("csv")) {
      return PrintUsage(
          "facts --dir serves an existing durable store; ingest with "
          "checkpoint/restore first");
    }
    return RunFactsFromDurable(args);
  }

  auto data_or = LoadCsvFlag(args);
  if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
  const Dataset& data = data_or.value();

  DiscoveryOptions options;
  options.max_bound_dims = args.GetInt("dhat", -1);
  options.max_measure_dims = args.GetInt("mhat", -1);
  if (Status st = ApplyStorageFlags(args, &options.storage); !st.ok()) {
    return PrintUsage(st.message());
  }
  const double tau = args.GetDouble("tau", 2.0);

  Relation relation(data.schema());

  // Pre-ingest flag validation against the (still empty) relation: a typo
  // in --k/--page/--window/--subspace or a misspelled --where dimension
  // must not cost a full discovery run. Dictionary-dependent value lookups
  // re-run for real after the stream is drained.
  {
    auto probe_or = ParseFactsFlags(args, relation);
    if (!probe_or.ok()) return PrintUsage(probe_or.status().message());
  }
  FactService::Options service_options;
  service_options.entity = args.Get("entity");
  if (!service_options.entity.empty() &&
      data.schema().DimensionIndex(service_options.entity) < 0) {
    return PrintUsage("--entity names no dimension");
  }
  FactService service(&relation, service_options);

  // Engine: sequential by default, sharded with --threads/--shards (same
  // rules as discover).
  std::unique_ptr<DiscoveryEngine> engine;
  std::unique_ptr<ShardedEngine> sharded;
  if (args.Has("threads") || args.Has("shards")) {
    if (args.Has("algorithm")) {
      return PrintUsage(
          "--algorithm does not combine with --threads/--shards (the "
          "sharded engine is its own algorithm)");
    }
    const int threads = args.GetInt("threads", 1);
    if (threads < 1) return PrintUsage("--threads must be >= 1");
    const int shards = args.GetInt("shards", threads > 1 ? 2 * threads : 4);
    if (shards < 1 || shards > ShardedDiscoverer::kMaxShards) {
      return PrintUsage("--shards must be in [1, " +
                        std::to_string(ShardedDiscoverer::kMaxShards) + "]");
    }
    ShardedEngine::Config config;
    config.num_shards = shards;
    config.num_threads = threads;
    config.options = options;
    config.tau = tau;
    sharded = std::make_unique<ShardedEngine>(&relation, config);
  } else {
    const std::string algorithm = args.Get("algorithm", "STopDown");
    std::string store_dir;
    if (algorithm.rfind("FS", 0) == 0) store_dir = TempStoreDir("facts");
    auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, &relation,
                                                     options, store_dir);
    if (!disc_or.ok()) return PrintUsage(disc_or.status().ToString());
    if (disc_or.value()->store() == nullptr) {
      return PrintUsage(algorithm +
                        " keeps no µ-store, so prominence-ranked serving is "
                        "unavailable; pick a BottomUp/TopDown family "
                        "algorithm");
    }
    DiscoveryEngine::Config config;
    config.options = options;
    config.tau = tau;
    engine = std::make_unique<DiscoveryEngine>(&relation,
                                               std::move(disc_or).value(),
                                               config);
  }

  FactFeed::Options feed_options;
  feed_options.fact_service = &service;
  std::unique_ptr<FactFeed> feed;
  if (sharded != nullptr) {
    feed = std::make_unique<FactFeed>(sharded.get(), nullptr, feed_options);
  } else {
    feed = std::make_unique<FactFeed>(engine.get(), nullptr, feed_options);
  }

  // Producer pushes the CSV; with --watch the main thread plays dashboard,
  // querying the service while ingestion runs (the whole point of the
  // snapshot design: the queries never block the stream).
  std::thread producer([&] {
    for (const Row& row : data.rows()) {
      if (!feed->Publish(row)) break;
    }
  });
  if (args.Has("watch")) {
    const int poll_ms = args.GetInt("poll-ms", 100);
    while (feed->processed() < data.rows().size()) {
      FactService::Snapshot snap = feed->Query();
      std::string headline = "(no facts yet)";
      FactService::Page top = snap.TopK(1);
      if (!top.facts.empty()) headline = snap.Explain(top.facts[0]);
      std::printf("watch epoch %llu: %zu facts / %llu arrivals | %s\n",
                  static_cast<unsigned long long>(snap.epoch()),
                  snap.fact_count(),
                  static_cast<unsigned long long>(snap.arrivals()),
                  headline.c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }
  producer.join();
  feed->Drain();
  feed->Stop();

  auto flags_or = ParseFactsFlags(args, relation);
  if (!flags_or.ok()) return PrintUsage(flags_or.status().message());
  if (args.Get("format", "text") == "json") {
    PrintFactsJson(service.Acquire(), flags_or.value());
  } else {
    PrintFactPages(service.Acquire(), flags_or.value());
  }
  return 0;
}

namespace {

/// SIGINT/SIGTERM ask the serve loop to wind down gracefully.
std::atomic<bool> g_serve_stop{false};

void HandleStopSignal(int) { g_serve_stop.store(true); }

}  // namespace

int RunServe(const Args& args) {
  auto data_or = LoadCsvFlag(args);
  if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
  const Dataset& data = data_or.value();

  DiscoveryOptions options;
  options.max_bound_dims = args.GetInt("dhat", -1);
  options.max_measure_dims = args.GetInt("mhat", -1);
  if (Status st = ApplyStorageFlags(args, &options.storage); !st.ok()) {
    return PrintUsage(st.message());
  }

  Relation relation(data.schema());
  FactService::Options service_options;
  service_options.entity = args.Get("entity");
  if (!service_options.entity.empty() &&
      data.schema().DimensionIndex(service_options.entity) < 0) {
    return PrintUsage("--entity names no dimension");
  }
  FactService service(&relation, service_options);

  const std::string algorithm = args.Get("algorithm", "STopDown");
  std::string store_dir;
  if (algorithm.rfind("FS", 0) == 0) store_dir = TempStoreDir("serve");
  auto disc_or = DiscoveryEngine::CreateDiscoverer(algorithm, &relation,
                                                   options, store_dir);
  if (!disc_or.ok()) return PrintUsage(disc_or.status().ToString());
  if (disc_or.value()->store() == nullptr) {
    return PrintUsage(algorithm +
                      " keeps no µ-store, so prominence-ranked serving is "
                      "unavailable; pick a BottomUp/TopDown family "
                      "algorithm");
  }
  DiscoveryEngine::Config config;
  config.options = options;
  config.tau = args.GetDouble("tau", 2.0);
  DiscoveryEngine engine(&relation, std::move(disc_or).value(), config);

  // Ingest through the same FactFeed path as `facts`, so a server over a
  // CSV lands on the same epoch as the in-process query — the smoke test
  // byte-diffs the two.
  {
    FactFeed::Options feed_options;
    feed_options.fact_service = &service;
    FactFeed feed(&engine, nullptr, feed_options);
    for (const Row& row : data.rows()) {
      if (!feed.Publish(row)) break;
    }
    feed.Drain();
    feed.Stop();
  }

  net::FactServer::Options server_options;
  server_options.net.host = args.Get("host", "127.0.0.1");
  const int port = args.GetInt("port", 8080);
  if (port < 0 || port > 65535) {
    return PrintUsage("--port must be in [0, 65535] (0 = kernel-assigned)");
  }
  server_options.net.port = static_cast<uint16_t>(port);
  const int max_connections = args.GetInt("max-connections", 64);
  if (max_connections < 1) {
    return PrintUsage("--max-connections must be >= 1");
  }
  server_options.net.max_connections = max_connections;
  const int cache = args.GetInt("cache", 512);
  if (cache < 0) return PrintUsage("--cache must be >= 0 (0 disables)");
  server_options.cache_capacity = static_cast<size_t>(cache);

  net::FactServer server(&service, &relation, server_options);
  Status st = server.Listen();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (args.Has("port-file")) {
    // Written after the socket is bound: a waiting script reads the file
    // and knows the server is accepting.
    std::FILE* f = std::fopen(args.Get("port-file").c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n",
                   args.Get("port-file").c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }
  {
    FactService::Snapshot snap = service.Acquire();
    std::printf(
        "serving %zu facts (epoch %llu) at http://%s:%u — endpoints: /topk "
        "/facts_for_tuple /facts_in_window /about /explain /statz /healthz; "
        "POST /quitquitquit (or SIGINT) to stop\n",
        snap.fact_count(), static_cast<unsigned long long>(snap.epoch()),
        server_options.net.host.c_str(), server.port());
    std::fflush(stdout);
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  server.set_external_stop(&g_serve_stop);
  st = server.Serve();
  if (!st.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const net::EpollServer::Stats& stats = server.net_stats();
  std::printf("served %llu request(s) over %llu connection(s), shed %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.shed));
  return 0;
}

int RunCheckpoint(const Args& args) {
  if (!args.Has("dir")) return PrintUsage("--dir is required");
  if (args.Has("algorithm") && (args.Has("threads") || args.Has("shards"))) {
    // Same rule as discover: the sharded engine is its own algorithm.
    return PrintUsage(
        "--algorithm does not combine with --threads/--shards (the sharded "
        "engine is its own algorithm)");
  }
  auto opts_or = DurableOptionsFromFlags(args);
  if (!opts_or.ok()) return PrintUsage(opts_or.status().message());
  persist::DurableOptions opts = std::move(opts_or).value();

  Schema schema;
  Dataset data{Schema()};
  const bool streaming = args.Has("csv");
  if (streaming) {
    auto data_or = LoadCsvFlag(args);
    if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
    data = std::move(data_or).value();
    schema = data.schema();
  }

  auto durable_or = persist::DurableEngine::Open(opts, schema);
  if (!durable_or.ok()) {
    std::fprintf(stderr, "%s\n", durable_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<persist::DurableEngine> durable =
      std::move(durable_or).value();

  if (streaming) {
    int rc = StreamIntoDurable(args, durable.get(), data);
    if (rc != 0) return rc;
  }

  if (args.Has("no-final")) {
    std::printf(
        "WAL holds %llu op(s) past the last checkpoint (checkpoint seq "
        "%llu, next op seq %llu); restore will replay them\n",
        static_cast<unsigned long long>(durable->ops_since_checkpoint()),
        static_cast<unsigned long long>(durable->next_seq() -
                                        durable->ops_since_checkpoint()),
        static_cast<unsigned long long>(durable->next_seq()));
    return 0;
  }
  Status st = durable->Checkpoint();
  if (!st.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("checkpointed at seq %llu (%s, %u tuples)\n",
              static_cast<unsigned long long>(durable->next_seq()),
              durable->algorithm().c_str(), durable->relation().size());
  return 0;
}

int RunRestore(const Args& args) {
  if (!args.Has("dir")) return PrintUsage("--dir is required");
  auto opts_or = DurableOptionsFromFlags(args);
  if (!opts_or.ok()) return PrintUsage(opts_or.status().message());
  persist::DurableOptions opts = std::move(opts_or).value();

  auto durable_or = persist::DurableEngine::Open(opts, Schema());
  if (!durable_or.ok()) {
    std::fprintf(stderr, "%s\n", durable_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<persist::DurableEngine> durable =
      std::move(durable_or).value();
  const persist::RecoveryInfo& info = durable->recovery();
  std::printf(
      "restored %s engine at seq %llu (snapshot seq %llu + %llu WAL ops), "
      "%u tuples (%u live)\n",
      durable->algorithm().c_str(),
      static_cast<unsigned long long>(durable->next_seq()),
      static_cast<unsigned long long>(info.snapshot_seq),
      static_cast<unsigned long long>(info.replayed_ops),
      durable->relation().size(), durable->relation().live_size());
  if (info.delta_chain > 0) {
    std::printf(
        "  via %llu delta checkpoint(s); %llu op(s) folded count-only\n",
        static_cast<unsigned long long>(info.delta_chain),
        static_cast<unsigned long long>(info.count_only_ops));
  }
  if (!info.delta_note.empty()) {
    std::printf("note: delta chain cut short: %s\n", info.delta_note.c_str());
  }
  if (info.tail_truncated) {
    std::printf("note: WAL tail dropped (%s); re-send ops from seq %llu\n",
                info.note.c_str(),
                static_cast<unsigned long long>(durable->next_seq()));
  }

  if (args.Has("csv")) {
    // Continue the stream under the snapshot's schema.
    auto table_or = CsvTable::Read(args.Get("csv"));
    if (!table_or.ok()) return PrintUsage(table_or.status().ToString());
    auto data_or =
        DatasetFromCsvTable(table_or.value(), durable->relation().schema());
    if (!data_or.ok()) return PrintUsage(data_or.status().ToString());
    int rc = StreamIntoDurable(args, durable.get(), data_or.value());
    if (rc != 0) return rc;
  }

  if (!args.Has("no-final")) {
    Status st = durable->Checkpoint();
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("checkpointed at seq %llu\n",
                static_cast<unsigned long long>(durable->next_seq()));
  }
  return 0;
}

namespace {

std::string WalRowToString(const Row& row) {
  std::string out = "[";
  for (size_t i = 0; i < row.dimensions.size(); ++i) {
    if (i > 0) out += ",";
    out += row.dimensions[i];
  }
  out += " |";
  for (double m : row.measures) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %g", m);
    out += buf;
  }
  out += "]";
  return out;
}

int DumpOneWal(const std::string& path, int limit) {
  auto contents_or = persist::ReadWal(path);
  if (!contents_or.ok()) {
    std::printf("%s: %s\n", path.c_str(),
                contents_or.status().ToString().c_str());
    return 1;
  }
  const persist::WalContents& contents = contents_or.value();
  std::printf("%s: start_seq %llu, %zu op(s)\n", path.c_str(),
              static_cast<unsigned long long>(contents.start_seq),
              contents.ops.size());
  int shown = 0;
  for (const persist::WalOp& op : contents.ops) {
    if (limit > 0 && shown++ >= limit) {
      std::printf("  ... (%zu more)\n", contents.ops.size() -
                                            static_cast<size_t>(limit));
      break;
    }
    switch (op.kind) {
      case persist::WalOpKind::kAppend:
        std::printf("  seq %llu append %s\n",
                    static_cast<unsigned long long>(op.seq),
                    WalRowToString(op.row).c_str());
        break;
      case persist::WalOpKind::kRemove:
        std::printf("  seq %llu remove tuple %u\n",
                    static_cast<unsigned long long>(op.seq), op.target);
        break;
      case persist::WalOpKind::kUpdate:
        std::printf("  seq %llu update tuple %u -> %s\n",
                    static_cast<unsigned long long>(op.seq), op.target,
                    WalRowToString(op.row).c_str());
        break;
    }
  }
  if (!contents.clean_tail) {
    std::printf("  ! tail dropped: %s\n", contents.tail_note.c_str());
  }
  return 0;
}

}  // namespace

int RunWalDump(const Args& args) {
  const int limit = args.GetInt("limit", 0);
  if (args.Has("wal")) return DumpOneWal(args.Get("wal"), limit);
  if (!args.Has("dir")) return PrintUsage("--wal or --dir is required");

  std::vector<persist::StoreFile> segments =
      persist::ListWalSegments(args.Get("dir"));
  if (segments.empty()) {
    std::printf("no WAL segments in %s\n", args.Get("dir").c_str());
    return 0;
  }
  int rc = 0;
  for (const persist::StoreFile& segment : segments) {
    rc = std::max(rc, DumpOneWal(segment.path, limit));
  }
  return rc;
}

}  // namespace cli
}  // namespace sitfact
