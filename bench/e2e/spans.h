#ifndef PBS_BENCH_E2E_SPANS_H_
#define PBS_BENCH_E2E_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pbs {
namespace e2e {

/// One timed call into a library layer, recorded by the benchmark itself
/// (not inside the library): the layer it enters, the public function, the
/// request it belongs to, its parent span and its [start, end) interval.
struct Span {
  const char* layer = "";  // "bench" | "pbs" | "core" | "kvs" | "obs"
  const char* name = "";   // e.g. "kvs::RunStalenessExperiment"
  int64_t request = -1;
  int parent = -1;         // index into the span list; -1 for a root
  double start_us = 0.0;   // since the tracer was created
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

/// In-memory span recorder. Disabled, Begin/End cost one branch and record
/// nothing, so the untraced requests of a run pay no tracing cost.
class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_request(int64_t request) { request_ = request; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled). Spans must close in LIFO order.
  int Begin(const char* layer, const char* name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  using Clock = std::chrono::steady_clock;

  bool enabled_ = false;
  int64_t request_ = -1;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(layer, name)) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-layer totals over every span: calls, busy time (spans not nested in
/// a span of the same layer), self time (span minus its direct children)
/// and self time as a share of all root-span time.
struct LayerRow {
  std::string layer;
  int64_t calls = 0;
  double busy_ms = 0.0;
  double self_ms = 0.0;
  double share = 0.0;  // self_ms / root_ms
};

struct LayerTable {
  std::vector<LayerRow> rows;  // sorted by layer name
  double root_ms = 0.0;        // sum of root-span durations
};

LayerTable SummarizeLayers(const std::vector<Span>& spans);

/// Writes the spans as one JSON object {"spans": [...]}; false on I/O error.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e
}  // namespace pbs

#endif  // PBS_BENCH_E2E_SPANS_H_
