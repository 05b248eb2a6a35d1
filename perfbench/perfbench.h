#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

// Shared types of the repo benchmark: the numbers one round of a workload
// yields, and the workload interface main.cc drives.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace.h"

namespace perfbench {

/// What one round (fresh engine, whole stream) measured.
struct Round {
  double setup_s = 0;   ///< median over the round's set-ups
  double ingest_s = 0;  ///< wall time of the ingest phase
  uint64_t ops = 0;     ///< ops completed in the ingest phase
  uint64_t failed_ops = 0;
  std::vector<double> arrival_ms;  ///< one per arrival
  std::vector<double> query_us;    ///< one per HTTP request
  uint64_t queries = 0;
  uint64_t failed_queries = 0;
  double cpu_user_s = 0;  ///< process CPU over the ingest phase
  double cpu_sys_s = 0;
  uint64_t ctx_switches = 0;
  double steal_share = 0;  ///< host steal over the ingest phase, 0..1
  double store_bytes = 0;  ///< bytes of the durable directory at the end
  /// Deterministic outcomes: a digest of every report's facts, prominence
  /// and prominent selection, and the discovery work counters.
  uint64_t digest = 0;
  uint64_t facts = 0;
  uint64_t comparisons = 0;
  uint64_t traversed = 0;
  /// Per-layer counts read from public accessors at the end of the round.
  std::map<std::string, double> counters;
  /// Hash of each of the first arrivals' canonical fact lists, for the
  /// oracle.
  std::vector<uint64_t> fact_hashes;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Whether comparisons/traversed must repeat exactly across rounds (false
  /// for the sharded engine, whose cross-shard pruner board races).
  virtual bool deterministic_counters() const { return true; }
  /// Runs the whole stream through a fresh engine. `tracer` is null in the
  /// untraced rounds.
  virtual sitfact::StatusOr<Round> RunRound(Tracer* tracer) = 0;
  /// Replays the first rows of the stream through BruteForce with the same
  /// truncation knobs and compares facts tuple for tuple against `round`.
  virtual sitfact::Status CheckOracle(const Round& round) = 0;
};

/// `work_dir` is a private scratch directory for stores and spill files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& work_dir);
std::vector<std::string> WorkloadNames();

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
