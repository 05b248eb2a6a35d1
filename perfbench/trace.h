#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are taken
// around the calls the benchmark makes into each layer's public API; nothing
// inside the library is instrumented. Each thread appends to its own buffer,
// so recording takes no lock after a thread's first span.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  int64_t start_ns = 0;   ///< since the tracer's epoch
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index in the same thread's buffer, -1 for roots
  uint64_t op = 0;        ///< the op (arrival, correction, request) it serves
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its index for Close().
  int32_t Open(const char* name, uint64_t op);
  void Close(int32_t index);

  /// Per span name over every thread: count and summed duration (ns).
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
  };
  std::map<std::string, Totals> TotalsByName() const;
  /// Per layer (the span name up to its first '.'): summed self time, the
  /// span's duration minus the part its child spans cover.
  std::map<std::string, int64_t> SelfNsByLayer() const;
  /// Writes every span as JSON; false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  ///< stack of open span indices
  };
  Buffer* ThreadBuffer();
  int64_t NowNs() const;

  const std::chrono::steady_clock::time_point epoch_;
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op, which is the untraced run.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t op)
      : tracer_(tracer), index_(tracer ? tracer->Open(name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
