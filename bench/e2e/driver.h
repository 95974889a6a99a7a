#ifndef PBS_BENCH_E2E_DRIVER_H_
#define PBS_BENCH_E2E_DRIVER_H_

// The adapter between the benchmark and the library: every call into the
// library's public API sits behind this interface (driver.cc), so a change
// to the library's entry points re-points one file.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace pbs {
namespace e2e {

/// One named measurement, printed as `name value unit`.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Exact counters read from a request's own outputs (result registry,
/// final metrics, run summary). They repeat exactly at a fixed seed.
struct Counts {
  int64_t requests = 0;
  // Work units completed: simulated client reads and writes, WARS trials
  // (predict_mc) or predictor queries (predict_analytic).
  int64_t ops = 0;
  int64_t events = 0;
  int64_t max_queue_depth = 0;  // max over requests
  int64_t messages = 0;
  int64_t dropped = 0;
  int64_t duplicated = 0;
  int64_t draws = 0;
  int64_t reads = 0;
  int64_t hedges_sent = 0;
  int64_t hedges_won = 0;
  int64_t retries = 0;
  int64_t deadline_misses = 0;
  int64_t migration_transfers = 0;
  int64_t stale_routes = 0;
  double moved_fraction = 0.0;  // summed over requests
  double min_fraction = 0.0;    // summed over requests
  int64_t controller_epochs = 0;
  int64_t controller_steps = 0;
  int64_t controller_rollbacks = 0;
  int64_t windows = 0;

  void Add(const Counts& other);
};

/// Outcome of checking one request: `failure` is empty when every check
/// passed, else it names the first one that failed.
struct RequestCheck {
  std::string failure;
  Counts counts;
};

/// One benchmark workload: the library calls one user command makes, run
/// as a closed loop of requests by main.cc.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Request `index` of the loop with per-request seed `seed`: exactly the
  /// library calls of the matching user command, and nothing else. Spans
  /// go to the tracer given at construction when it is enabled.
  virtual void Request(int64_t index, uint64_t seed) = 0;

  /// Checks the last request's outputs and reads its counters (untimed).
  /// `counted` marks the fixed prefix of timed requests whose outputs also
  /// feed Finish(), so those checks repeat exactly at a fixed seed.
  virtual RequestCheck CheckLast(bool counted) = 0;

  /// Checks over the whole timed phase, run after it (untimed). Appends
  /// metrics and returns the failed checks.
  virtual std::vector<std::string> Finish(std::vector<Metric>* metrics) = 0;

  /// Traced runs only: replays each layer's public functions on this
  /// workload's inputs and runs the paired comparison runs behind the
  /// derived metrics. `counted` holds the counted requests' totals and
  /// `seeds` their seeds.
  virtual void Replays(const Counts& counted,
                       const std::vector<uint64_t>& seeds,
                       std::vector<Metric>* metrics) = 0;
};

/// Span names main.cc derives the predictor metrics from.
inline constexpr char kCreateSpan[] = "core::PbsPredictor::Create";
inline constexpr char kQuerySpan[] = "core::PbsPredictor::Query x6";

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds a workload: config lowering, scenario and model building. Null,
/// with `*error` set, on an unknown name or a setup failure.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, Tracer* tracer,
                                       std::string* error);

}  // namespace e2e
}  // namespace pbs

#endif  // PBS_BENCH_E2E_DRIVER_H_
