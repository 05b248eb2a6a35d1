#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

struct ThreadSlot {
  uint64_t tracer_id = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

std::string LayerOf(const char* name) {
  std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      id_(g_next_tracer_id.fetch_add(1)) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_slot.tracer_id != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    t_slot.tracer_id = id_;
    t_slot.buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_slot.buffer);
}

int32_t Tracer::Open(const char* name, uint64_t op) {
  Buffer* b = ThreadBuffer();
  Span span;
  span.name = name;
  span.parent = b->open.empty() ? -1 : b->open.back();
  span.op = op;
  const auto index = static_cast<int32_t>(b->spans.size());
  b->open.push_back(index);
  span.start_ns = NowNs();
  b->spans.push_back(span);
  return index;
}

void Tracer::Close(int32_t index) {
  const int64_t now = NowNs();
  Buffer* b = ThreadBuffer();
  b->spans[static_cast<size_t>(index)].end_ns = now;
  b->open.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      Totals& t = out[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
    }
  }
  return out;
}

std::map<std::string, int64_t> Tracer::SelfNsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& b : buffers_) {
    std::vector<int64_t> child_ns(b->spans.size(), 0);
    for (const Span& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      out[LayerOf(s.name)] += (s.end_ns - s.start_ns) - child_ns[i];
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"threads\": [");
  for (size_t t = 0; t < buffers_.size(); ++t) {
    std::fprintf(f, "%s\n [", t == 0 ? "" : ",");
    const std::vector<Span>& spans = buffers_[t]->spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                      "\"parent\":%d,\"op\":%llu}",
                   i == 0 ? "" : ",\n  ", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op));
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
