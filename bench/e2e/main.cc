// pbs_e2e — runs one workload of the end-to-end benchmark (README.md in
// this directory).
//
//   pbs_e2e --workload=NAME [--seed=1] [--seconds=15] [--trace=0|1]
//           [--quick] [--out-dir=DIR]
//
// Sets the workload up kSetupReps times (lowering, model building and
// kWarmups untimed warm-up requests each), then runs it as a closed loop
// with one client for --seconds (and at least kMinRequests requests;
// --quick runs exactly 5 after a single warm-up). Every request is checked.
// Every metric prints as `name value unit` and goes to
// DIR/BENCH_e2e_<workload>[_trace].json. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace=0) or the per-layer metrics (--trace=1).
//
// The end-to-end times are reported at reference host speed: each timed
// piece is bracketed by two passes of a fixed host-speed probe, and its
// wall time is scaled by kReferencePassMs / (mean probe pass). On a shared
// host whose speed drifts by tens of percent over seconds, this keeps the
// run-to-run spread to a few percent. The request statistics are then taken
// over the quieter blocks of the loop (QuietTime, QuietRate). The raw wall
// times print as raw_*.
//
// --trace=1 repeats every request with tracing on (spans around each
// library call, written to DIR/TRACE_e2e_<workload>.json), reports the
// median traced/untraced time ratio as trace_overhead, prints the per-layer
// self-time table, and runs the layer replays and paired runs.
//
// Exit code 0 whenever the result line was printed; 2 on bad flags or a
// workload that cannot be built.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "driver.h"
#include "spans.h"

namespace pbs {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 3;
constexpr int kWarmups = 5;
// Counts, and the checks that pool outputs across requests, use the first
// kCounted timed requests only, so they repeat exactly at a fixed seed.
constexpr int64_t kCounted = 8;
constexpr int64_t kMinRequests = 10;
constexpr int64_t kQuickRequests = 5;
// Warm-up requests draw their seeds from indices the timed loop never uses.
constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 40;

struct Declared {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end" and "per_layer" lists.
constexpr Declared kEndToEnd[] = {
    {"request_ref_ms_p50", "ms"}, {"request_ref_ms_p90", "ms"},
    {"ops_per_ref_s", "1/s"},     {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};
constexpr Declared kPerLayer[] = {
    {"ops_per_request", "count"},
    {"sim.events_per_op", "count"},
    {"sim.max_queue_depth", "count"},
    {"sim.net_messages_per_op", "count"},
    {"sim.net_dropped_per_op", "count"},
    {"sim.net_duplicated_per_op", "count"},
    {"sim.event_ns", "ns"},
    {"dist.draws_per_op", "count"},
    {"dist.sample_ns", "ns"},
    {"kvs.self_share_est", "%"},
    {"kvs.hedges_per_read", "count"},
    {"kvs.hedge_win_ratio", "ratio"},
    {"kvs.retries_per_op", "count"},
    {"kvs.deadline_misses_per_op", "count"},
    {"kvs.migration_transfers_per_op", "count"},
    {"kvs.moved_over_min", "ratio"},
    {"kvs.stale_routes_per_op", "count"},
    {"kvs.controller.epochs_per_request", "count"},
    {"kvs.controller.steps_per_epoch", "count"},
    {"kvs.controller.rollbacks_per_step", "count"},
    {"kvs.controller.share", "%"},
    {"core.wars_ms", "ms"},
    {"core.wars_eff_t2", "ratio"},
    {"core.wars_eff_t4", "ratio"},
    {"core.evaluate_ms", "ms"},
    {"core.analytic_create_ms", "ms"},
    {"core.analytic_query_us", "us"},
    {"obs.windows_per_request", "count"},
    {"obs.telemetry_overhead", "ratio"},
    {"pbs.lower_us", "us"},
    {"bench.share", "%"},
    {"pbs.share", "%"},
    {"core.share", "%"},
    {"kvs.share", "%"},
    {"obs.share", "%"},
    {"trace_overhead", "ratio"},
};
constexpr const char* kLayers[] = {"bench", "pbs", "core", "kvs", "obs"};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".";
};

void Usage() {
  std::fprintf(stderr,
               "usage: pbs_e2e --workload=NAME [--seed=N] [--seconds=S] "
               "[--trace=0|1] [--quick] [--out-dir=DIR]\n"
               "workloads:");
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--quick") {
      options->quick = true;
    } else if (key == "--out-dir" && !value.empty()) {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return std::find(WorkloadNames().begin(), WorkloadNames().end(),
                   options->workload) != WorkloadNames().end();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t RequestSeed(uint64_t seed, uint64_t index) {
  return SplitMix64(SplitMix64(seed) ^ index);
}

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linearly interpolated quantile (the numpy / util/stats type-7 default).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The timed requests are cut into this many consecutive blocks, and each
// request statistic is taken per block. A shared host's slow stretches come
// in bursts of a few seconds and only ever add time, so the statistic of the
// quieter blocks (the lower quartile of the block times, the upper quartile
// of the block rates) is the steadier estimate of what the code costs.
constexpr size_t kBlocks = 10;

/// `stat(begin, end)` of each block of a loop of `n` requests, reduced to
/// its quantile `q` over the blocks.
template <typename Stat>
double OverBlocks(size_t n, double q, Stat&& stat) {
  std::vector<double> values;
  for (size_t b = 0; b < kBlocks; ++b) {
    const size_t begin = n * b / kBlocks;
    const size_t end = n * (b + 1) / kBlocks;
    if (end > begin) values.push_back(stat(begin, end));
  }
  return Quantile(values, q);
}

/// Quantile `pct` of the request times of the quieter blocks.
double QuietTime(const std::vector<double>& ms, double pct) {
  return OverBlocks(ms.size(), 0.25, [&](size_t begin, size_t end) {
    return Quantile(std::vector<double>(ms.begin() + begin, ms.begin() + end),
                    pct);
  });
}

/// Work done per second of request time in the quieter blocks.
double QuietRate(const std::vector<double>& ops, const std::vector<double>& ms) {
  return OverBlocks(ms.size(), 0.75, [&](size_t begin, size_t end) {
    double done = 0.0;
    double seconds = 0.0;
    for (size_t i = begin; i < end; ++i) {
      done += ops[i];
      seconds += ms[i] / 1000.0;
    }
    return Ratio(done, seconds);
  });
}

// One probe pass takes this long on the reference host; the reported times
// are what they would have been there.
constexpr double kReferencePassMs = 1.0;

/// The host-speed probe: a fixed kernel owned by the benchmark (xorshift
/// draws driving read-modify-writes over a 256 KiB table), about 1 ms per
/// pass on a 4-vCPU Xeon VM. Its duration tracks how fast the host currently
/// runs the benchmark's core-bound work. The table fits in L2 and is walked
/// once, untimed, before each pass, so the cache and TLB state a request
/// leaves behind barely moves the timed part; it allocates nothing. On a
/// shared host, this probe tracked the workloads' slowdowns far better than
/// the same kernel over a 4 MiB table (README.md, Reference host speed).
class HostProbe {
 public:
  double PassMs() {
    constexpr uint64_t kMask = kSize - 1;
    uint64_t warm = 0;
    for (uint64_t v : table_) warm += v;
    sink_ = warm;
    const auto start = Clock::now();
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 400000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      table_[x & kMask] += x;
    }
    sink_ = table_[x & kMask];
    return Seconds(start) * 1000.0;
  }

 private:
  static constexpr uint64_t kSize = uint64_t{1} << 15;
  std::vector<uint64_t> table_ = std::vector<uint64_t>(kSize, 1);
  volatile uint64_t sink_ = 0;
};

/// A piece of work timed on the wall clock and at reference host speed.
struct Timed {
  double raw_ms = 0.0;
  double ref_ms = 0.0;
  double probe_ms = 0.0;  // mean of the two bracketing probe passes
};

template <typename Fn>
Timed TimeAtReference(HostProbe* probe, Fn&& fn) {
  const double before = probe->PassMs();
  const auto start = Clock::now();
  fn();
  Timed timed;
  timed.raw_ms = Seconds(start) * 1000.0;
  timed.probe_ms = 0.5 * (before + probe->PassMs());
  timed.ref_ms = timed.raw_ms * kReferencePassMs / timed.probe_ms;
  return timed;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Metrics in insertion order, looked up by name.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    // A non-finite value is a harness bug; keep the JSON valid regardless.
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Add(const Metric& metric) { Add(metric.name, metric.value, metric.unit); }
  /// The named metric's value; 0 when this workload does not produce it.
  double Value(const std::string& name) const {
    for (const Metric& metric : metrics_) {
      if (metric.name == name) return metric.value;
    }
    return 0.0;
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

void AddCountMetrics(const Counts& c, MetricList* m) {
  const auto per = [](int64_t num, int64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  m->Add("ops_per_request", per(c.ops, c.requests), "count");
  m->Add("sim.events_per_op", per(c.events, c.ops), "count");
  m->Add("sim.max_queue_depth", static_cast<double>(c.max_queue_depth), "count");
  m->Add("sim.net_messages_per_op", per(c.messages, c.ops), "count");
  m->Add("sim.net_dropped_per_op", per(c.dropped, c.ops), "count");
  m->Add("sim.net_duplicated_per_op", per(c.duplicated, c.ops), "count");
  m->Add("dist.draws_per_op", per(c.draws, c.ops), "count");
  m->Add("kvs.hedges_per_read", per(c.hedges_sent, c.reads), "count");
  m->Add("kvs.hedge_win_ratio", per(c.hedges_won, c.hedges_sent), "ratio");
  m->Add("kvs.retries_per_op", per(c.retries, c.ops), "count");
  m->Add("kvs.deadline_misses_per_op", per(c.deadline_misses, c.ops), "count");
  m->Add("kvs.migration_transfers_per_op", per(c.migration_transfers, c.ops),
         "count");
  m->Add("kvs.moved_over_min", Ratio(c.moved_fraction, c.min_fraction), "ratio");
  m->Add("kvs.stale_routes_per_op", per(c.stale_routes, c.ops), "count");
  m->Add("kvs.controller.epochs_per_request",
         per(c.controller_epochs, c.requests), "count");
  m->Add("kvs.controller.steps_per_epoch",
         per(c.controller_steps, c.controller_epochs), "count");
  m->Add("kvs.controller.rollbacks_per_step",
         per(c.controller_rollbacks, c.controller_steps), "count");
  m->Add("obs.windows_per_request", per(c.windows, c.requests), "count");
}

/// Span-derived metrics of the traced requests, plus the kvs self-time
/// estimate that combines them with the counts and the layer replays.
/// `traced_wall_ms` is the wall time of the same traced requests, timed
/// outside the tracer.
void AddSpanMetrics(const LayerTable& table, const std::vector<Span>& spans,
                    double traced_wall_ms, MetricList* m) {
  int64_t roots = 0;
  std::map<std::string, std::pair<int64_t, double>> by_name;  // calls, ms
  for (const Span& span : spans) {
    if (span.parent < 0) ++roots;
    auto& [calls, ms] = by_name[span.name];
    ++calls;
    ms += span.duration_us() / 1000.0;
  }
  std::map<std::string, LayerRow> layers;
  for (const LayerRow& row : table.rows) layers[row.layer] = row;
  for (const char* layer : kLayers) {
    m->Add(std::string(layer) + ".share", 100.0 * layers[layer].share, "%");
  }
  const double traced = static_cast<double>(roots);
  m->Add("pbs.lower_us", Ratio(1000.0 * layers["pbs"].busy_ms, traced), "us");
  if (layers["kvs"].busy_ms > 0.0) {
    const double run_ms = Ratio(layers["kvs"].busy_ms, traced);
    m->Add("kvs.run_ms", run_ms, "ms");
    // Estimate: what the event queue and the sampler explain, by replay,
    // subtracted from the measured run time per op.
    const double run_ns_per_op =
        Ratio(run_ms * 1e6, m->Value("ops_per_request"));
    const double self_ns =
        run_ns_per_op -
        m->Value("sim.events_per_op") * m->Value("sim.event_ns") -
        m->Value("dist.draws_per_op") * m->Value("dist.sample_ns");
    m->Add("kvs.self_ns_per_op", self_ns, "ns");
    m->Add("kvs.self_share_est", 100.0 * Ratio(self_ns, run_ns_per_op), "%");
  }
  if (layers["obs"].busy_ms > 0.0) {
    m->Add("obs.export_ms", Ratio(layers["obs"].busy_ms, traced), "ms");
  }
  if (const auto it = by_name.find(kCreateSpan); it != by_name.end()) {
    const double create_ms = Ratio(it->second.second,
                                   static_cast<double>(it->second.first));
    m->Add("core.create_ms", create_ms, "ms");
  }
  if (const auto it = by_name.find(kQuerySpan); it != by_name.end()) {
    m->Add("core.query_us",
           Ratio(1000.0 * it->second.second,
                 6.0 * static_cast<double>(it->second.first)),
           "us");
  }
  // The share of the requests' wall time spent inside a library span. Time
  // lost outside the root spans (tracer cost) or left in the root's own
  // self time (a library call without a span) lowers it.
  m->Add("trace.coverage",
         Ratio(table.root_ms - layers["bench"].self_ms, traced_wall_ms),
         "ratio");
}

void PrintLayerTable(const LayerTable& table) {
  std::printf("\n%-6s %8s %12s %12s %8s\n", "layer", "calls", "busy_ms",
              "self_ms", "share");
  for (const LayerRow& row : table.rows) {
    std::printf("%-6s %8lld %12.3f %12.3f %7.2f%%\n", row.layer.c_str(),
                static_cast<long long>(row.calls), row.busy_ms, row.self_ms,
                100.0 * row.share);
  }
  std::printf("%-6s %8s %12.3f  (root spans)\n\n", "total", "", table.root_ms);
}

bool WriteResultJson(const std::string& path, const Options& options,
                     bool correct, int64_t attempted, int64_t failed,
                     const std::vector<std::string>& failures,
                     const MetricList& metrics,
                     const std::vector<double>& raw_ms,
                     const std::vector<double>& ref_ms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld,\n"
               " \"failures\": [",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? 1 : 0, correct ? "true" : "false",
               static_cast<long long>(attempted),
               static_cast<long long>(failed));
  for (size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ",
                 JsonEscape(failures[i]).c_str());
  }
  std::fprintf(f, "],\n \"metrics\": {");
  for (size_t i = 0; i < metrics.all().size(); ++i) {
    const Metric& metric = metrics.all()[i];
    std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  // Per untraced request, in loop order: wall time and reference-speed time.
  const auto write_array = [f](const char* key, const std::vector<double>& v) {
    std::fprintf(f, ",\n \"%s\": [", key);
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(f, "%s%.6f", i == 0 ? "" : ", ", v[i]);
    }
    std::fprintf(f, "]");
  };
  std::fprintf(f, "\n }");
  write_array("request_raw_ms", raw_ms);
  write_array("request_ref_ms", ref_ms);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int Run(const Options& options) {
  const auto process_start = Clock::now();
  Tracer tracer;
  HostProbe probe;

  // Set-up, repeated so setup_s is a median. Each repetition builds the
  // workload afresh and warms it up with requests whose seeds the timed
  // loop never uses; the last repetition's workload is the one timed.
  const int setup_reps = options.quick ? 1 : kSetupReps;
  const int warmups = options.quick ? 1 : kWarmups;
  std::vector<double> setup_raw_s;
  std::vector<double> setup_ref_s;
  std::vector<std::string> failures;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < setup_reps; ++rep) {
    std::string error;
    Timed piece = TimeAtReference(&probe, [&] {
      workload = MakeWorkload(options.workload, &tracer, &error);
    });
    if (workload == nullptr) {
      std::fprintf(stderr, "pbs_e2e: %s\n", error.c_str());
      return 2;
    }
    double raw_ms = piece.raw_ms;
    double ref_ms = piece.ref_ms;
    for (int w = 0; w < warmups; ++w) {
      piece = TimeAtReference(&probe, [&] {
        workload->Request(w, RequestSeed(options.seed, kWarmupIndexBase + w));
      });
      raw_ms += piece.raw_ms;
      ref_ms += piece.ref_ms;
      const RequestCheck check = workload->CheckLast(false);
      if (!check.failure.empty()) {
        failures.push_back("warm-up request " + std::to_string(w) + ": " +
                           check.failure);
      }
    }
    setup_raw_s.push_back(raw_ms / 1000.0);
    setup_ref_s.push_back(ref_ms / 1000.0);
  }
  const double first_request_s = Seconds(process_start);

  // The closed loop: one client, next request when the previous one is
  // checked. Only Request() is timed. A traced run repeats every request
  // with tracing on, so each traced request pairs with an untraced one of
  // the same inputs.
  std::vector<double> untraced_ms;
  std::vector<double> untraced_ref_ms;
  std::vector<double> traced_over_untraced;
  std::vector<double> probe_ms;
  std::vector<double> untraced_ops;
  std::vector<uint64_t> counted_seeds;
  Counts counted;
  double traced_wall_ms = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto run_request = [&](int64_t i, uint64_t seed, bool traced,
                               bool count, RequestCheck* check) {
    tracer.set_request(i);
    const Timed timed = TimeAtReference(&probe, [&] {
      tracer.set_enabled(traced);
      {
        ScopedSpan root(&tracer, "bench", "request");
        workload->Request(i, seed);
      }
      tracer.set_enabled(false);
    });
    probe_ms.push_back(timed.probe_ms);
    *check = workload->CheckLast(count);
    ++attempted;
    if (!check->failure.empty()) {
      ++failed;
      failures.push_back("request " + std::to_string(i) + ": " +
                         check->failure);
    }
    return timed;
  };
  const auto loop_start = Clock::now();
  for (int64_t i = 0;; ++i) {
    if (options.quick ? i >= kQuickRequests
                      : i >= kMinRequests && Seconds(loop_start) >= options.seconds) {
      break;
    }
    const uint64_t seed = RequestSeed(options.seed, static_cast<uint64_t>(i));
    const bool count = i < kCounted;
    RequestCheck check;
    const Timed timed = run_request(i, seed, /*traced=*/false, count, &check);
    if (count) {
      counted.Add(check.counts);
      counted_seeds.push_back(seed);
    }
    untraced_ms.push_back(timed.raw_ms);
    untraced_ref_ms.push_back(timed.ref_ms);
    untraced_ops.push_back(static_cast<double>(check.counts.ops));
    if (options.trace) {
      const Timed traced = run_request(i, seed, /*traced=*/true, false, &check);
      traced_over_untraced.push_back(traced.ref_ms / timed.ref_ms);
      traced_wall_ms += traced.raw_ms;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  MetricList metrics;
  metrics.Add("request_ref_ms_p50", QuietTime(untraced_ref_ms, 0.5), "ms");
  metrics.Add("request_ref_ms_p90", QuietTime(untraced_ref_ms, 0.9), "ms");
  metrics.Add("ops_per_ref_s", QuietRate(untraced_ops, untraced_ref_ms), "1/s");
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  metrics.Add("setup_s", Quantile(setup_ref_s, 0.5), "s");
  metrics.Add("raw_request_ms_p50", QuietTime(untraced_ms, 0.5), "ms");
  metrics.Add("raw_request_ms_p90", QuietTime(untraced_ms, 0.9), "ms");
  metrics.Add("raw_ops_per_s", QuietRate(untraced_ops, untraced_ms), "1/s");
  metrics.Add("raw_setup_s", Quantile(setup_raw_s, 0.5), "s");
  metrics.Add("probe_pass_ms_p50", Quantile(probe_ms, 0.5), "ms");
  metrics.Add("request_samples", static_cast<double>(untraced_ms.size()),
              "count");
  metrics.Add("requests", static_cast<double>(attempted), "count");
  metrics.Add("requests_failed", static_cast<double>(failed), "count");
  metrics.Add("first_request_s", first_request_s, "s");
  AddCountMetrics(counted, &metrics);

  std::vector<Metric> finished;
  for (const std::string& failure : workload->Finish(&finished)) {
    failures.push_back(failure);
  }
  for (const Metric& metric : finished) metrics.Add(metric);

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string base = options.out_dir + "/BENCH_e2e_" + options.workload;
  if (options.trace) {
    std::vector<Metric> replayed;
    workload->Replays(counted, counted_seeds, &replayed);
    for (const Metric& metric : replayed) metrics.Add(metric);
    const LayerTable table = SummarizeLayers(tracer.spans());
    AddSpanMetrics(table, tracer.spans(), traced_wall_ms, &metrics);
    metrics.Add("trace_overhead", Quantile(traced_over_untraced, 0.5) - 1.0,
                "ratio");
    if (metrics.Value("trace.coverage") < 0.95) {
      failures.push_back("library spans cover under 95% of request time");
    }
    const std::string trace_out =
        options.out_dir + "/TRACE_e2e_" + options.workload + ".json";
    if (!WriteSpansJson(trace_out, tracer.spans())) {
      failures.push_back("cannot write " + trace_out);
    }
    std::printf("spans: %zu -> %s\n", tracer.spans().size(), trace_out.c_str());
    PrintLayerTable(table);
  }

  std::printf("workload %s, seed %llu, %lld requests (%lld failed)\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const std::string& failure : failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  for (const Metric& metric : metrics.all()) {
    std::printf("%s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = failures.empty();
  const std::string result_path = base + (options.trace ? "_trace" : "") + ".json";
  if (!WriteResultJson(result_path, options, correct, attempted, failed,
                       failures, metrics, untraced_ms, untraced_ref_ms)) {
    std::fprintf(stderr, "pbs_e2e: cannot write %s\n", result_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  const auto emit = [&](const Declared& declared) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", declared.name,
                metrics.Value(declared.name), declared.unit);
    first = false;
  };
  if (options.trace) {
    for (const Declared& declared : kPerLayer) emit(declared);
  } else {
    for (const Declared& declared : kEndToEnd) emit(declared);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace pbs

int main(int argc, char** argv) {
  pbs::e2e::Options options;
  if (!pbs::e2e::ParseArgs(argc, argv, &options)) {
    pbs::e2e::Usage();
    return 2;
  }
  return pbs::e2e::Run(options);
}
