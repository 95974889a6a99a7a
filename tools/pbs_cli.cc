// pbs — command-line front end to the PBS library.
//
//   pbs predict  --n=3 --r=1 --w=1 [--scenario=lnkd-disk] [--trials=200000]
//                [--backend=mc|analytic|auto] [--grid-bins=20000]
//                [--grid-max-ms=4000]
//   pbs sla      --max-t=15 --prob=0.999 [--min-w=1] [--max-n=5]
//                [--read-fraction=0.8] [--scenario=...]
//   pbs levels   --n=3 --read=one --write=quorum [--scenario=...]
//   pbs fit      --trace=w.txt            (fit Pareto+Exp mixture to samples)
//   pbs simulate --n=3 --r=1 --w=1 [--writes=5000] [--read-repair]
//                [--anti-entropy-ms=0] [--scenario=...] [--seed=7]
//                [--fanout=all|quorum] [--phi-detector]
//                [--hedge] [--hedge-quantile=0.99] [--hedge-delay-ms=0]
//                [--deadline-ms=0] [--retries=1] [--downgrade-on-retry]
//                [--sla="p=0.999,t=10,p99<=15"] [--controller]
//                [--controller-epoch-ms=2000]
//                [--backend=mc|analytic|auto] [--grid-bins=8000]
//                [--grid-max-ms=2000]
//                [--fault=SPEC[;SPEC...]]
//                [--trace[=trace.json]] [--audit[=audit.jsonl]]
//                [--metrics-out[=metrics.jsonl]] [--trace-sample-every=1]
//                [--window-ms=500] [--monitor]
//                [--timeseries-out[=telemetry.jsonl]]
//                [--dashboard-out[=dashboard.html]]
//   pbs report   --telemetry=pbs_telemetry.jsonl [--out=pbs_report.html]
//                [--title=...]      (render the dashboard from an artifact)
//   pbs predict-trace --w=w.txt --a=a.txt --rr=r.txt --s=s.txt --n=3 --r=1
//                --w-quorum=1       (predict from measured leg traces)
//
// Fault SPECs (gray-failure injection; times default to the whole run):
//   slow:node=2,factor=10[,add=0]      outbound delays of node scaled/shifted
//   lossy:src=0,dst=4,loss=0.8[,g2b=0.02,b2g=0.2]   Gilbert-Elliott bursts
//   dup:src=0,dst=4[,p=1]              duplicate delivery on a link
//   flap:node=2,up=300,down=200        crash/recover cycling
//   oneway:src=0,dst=4                 one-way partition (src->dst dropped)
//   gray:seed=7[,interarrival=4000,duration=1500]   seeded random mix
// Example: --fault=slow:node=2,factor=10 --hedge --hedge-quantile=0.99
//
// Closed-loop control (simulate): --sla declares "fraction p of reads fresher
// than t ms at read p99 <= L ms"; --controller switches on the in-cluster
// consistency controller that tunes R/W mixing, hedging and retries toward
// it (kvs/controller.h). Audit output then carries the active config and
// decision id per read.
//
// Observability (simulate): --trace writes a Chrome trace_event file
// (load via chrome://tracing or ui.perfetto.dev), --audit a per-stale-read
// JSONL explanation, --metrics-out the run's instrument registry as JSONL.
// Bare flags pick default file names; --flag=path overrides.
//
// Streaming telemetry (simulate; DESIGN.md §13): --window-ms cuts the
// instrument registry into fixed windows on the sim clock; --monitor adds
// the live predictor-drift monitor (requires --sla); --timeseries-out
// writes the composed telemetry JSONL (windows + monitor samples/alerts +
// controller decisions); --dashboard-out renders the same artifact as a
// self-contained HTML dashboard. `pbs report` re-renders a saved artifact.
//
// Scenarios: lnkd-ssd | lnkd-disk | ymmr | wan (Table 3 fits of the paper).

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/sla.h"
#include "dist/fit.h"
#include "dist/trace.h"
#include "kvs/consistency_level.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "obs/dashboard.h"
#include "obs/exporters.h"
#include "obs/monitor.h"
#include "pbs/config.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace pbs;

/// Minimal --key=value / --flag parser. Numbers must parse as the whole
/// string (finite doubles, in-range ints). Each Get* marks its flag read,
/// so Check() can reject a malformed number or a flag the command ignored.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << arg << "\n";
        ok_ = false;
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }

  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    const std::string* text = Find(key);
    return text == nullptr ? fallback : *text;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    const double value = std::strtod(text->c_str(), &end);
    if (text->empty() || end != text->c_str() + text->size() ||
        !std::isfinite(value)) {
      Fail(key, *text, "a finite number");
      return fallback;
    }
    return value;
  }
  int GetInt(const std::string& key, int fallback) const {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text->c_str(), &end, 10);
    if (text->empty() || end != text->c_str() + text->size() ||
        errno == ERANGE || value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      Fail(key, *text, "a 32-bit integer");
      return fallback;
    }
    return static_cast<int>(value);
  }
  bool GetBool(const std::string& key) const {
    const std::string* text = Find(key);
    return text != nullptr && *text != "false";
  }

  /// False, with a message naming the flag, when a number failed to parse
  /// or a flag went unread. Commands call this once all their flags are
  /// read and before any work starts.
  bool Check(const char* command) const {
    if (!error_.empty()) {
      std::cerr << "pbs " << command << ": " << error_ << "\n";
      return false;
    }
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        std::cerr << "pbs " << command << ": unknown or unused flag --" << key
                  << "\n";
        return false;
      }
    }
    return true;
  }

 private:
  const std::string* Find(const std::string& key) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }
  void Fail(const std::string& key, const std::string& text,
            const char* want) const {
    if (error_.empty()) error_ = "--" + key + "=" + text + " is not " + want;
  }

  std::map<std::string, std::string> values_;
  bool ok_ = true;
  // Parse bookkeeping, filled in by the const getters.
  mutable std::set<std::string> read_;
  mutable std::string error_;
};

// Library scenario lookup (pbs/config.h), CLI-flavored: warn and fall back
// to the paper's LNKD-DISK fits on an unknown name.
ReplicaLatencyModelPtr ScenarioModelOrDefault(const std::string& name, int n) {
  const StatusOr<ReplicaLatencyModelPtr> model = pbs::ScenarioModel(name, n);
  if (model.ok()) return model.value();
  std::cerr << model.status().message() << "; using lnkd-disk\n";
  return pbs::ScenarioModel("lnkd-disk", n).value();
}

StatusOr<kvs::ConsistencyLevel> ParseLevel(const std::string& text) {
  if (text == "one") return kvs::ConsistencyLevel::kOne;
  if (text == "two") return kvs::ConsistencyLevel::kTwo;
  if (text == "three") return kvs::ConsistencyLevel::kThree;
  if (text == "quorum") return kvs::ConsistencyLevel::kQuorum;
  if (text == "all") return kvs::ConsistencyLevel::kAll;
  return Status::InvalidArgument("unknown consistency level: " + text);
}

/// Parses the engine-selection flags shared by predict / levels /
/// predict-trace into `options`. False (with a message) on a bad value.
bool ParseBackendFlags(const Args& args, PredictorOptions* options) {
  const std::string backend = args.GetString("backend", "mc");
  const StatusOr<PredictorBackend> parsed = ParsePredictorBackend(backend);
  if (!parsed.ok()) {
    std::cerr << parsed.status().message() << "\n";
    return false;
  }
  options->backend = parsed.value();
  options->grid.bins = args.GetInt("grid-bins", options->grid.bins);
  const double max_ms = args.GetDouble("grid-max-ms", -1.0);
  if (max_ms >= 0.0) {
    // An explicit bound is used literally (no tail-aware auto-scaling).
    options->grid.max_ms = max_ms;
    options->grid.auto_max = false;
  }
  return true;
}

int PrintPrediction(const QuorumConfig& config,
                    const ReplicaLatencyModelPtr& model,
                    PredictorOptions options) {
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create(config, model, options);
  if (!created.ok()) {
    std::cerr << created.status().message() << "\n";
    return 1;
  }
  const PbsPredictor& predictor = created.value();
  std::printf("%s (%s), backend=%s\n", config.ToString().c_str(),
              config.IsStrict() ? "strict" : "partial",
              PredictorBackendName(predictor.backend()));
  if (!predictor.backend_note().empty()) {
    std::printf("  %s\n", predictor.backend_note().c_str());
  }
  TextTable table({"metric", "value"});
  table.AddRow({"P(consistent, t=0)",
                FormatDouble(predictor.ProbConsistent(0.0), 4)});
  table.AddRow({"P(consistent, t=10ms)",
                FormatDouble(predictor.ProbConsistent(10.0), 4)});
  table.AddRow({"t-visibility @ 99.9% (ms)",
                FormatDouble(predictor.TimeForConsistency(0.999), 2)});
  table.AddRow({"P(within 2 versions)",
                FormatDouble(predictor.KFreshness(2), 4)});
  table.AddRow({"read latency p99.9 (ms)",
                FormatDouble(predictor.ReadLatencyPercentile(99.9), 2)});
  table.AddRow({"write latency p99.9 (ms)",
                FormatDouble(predictor.WriteLatencyPercentile(99.9), 2)});
  table.Print(std::cout);
  return 0;
}

int CmdPredict(const Args& args) {
  const QuorumConfig config{args.GetInt("n", 3), args.GetInt("r", 1),
                            args.GetInt("w", 1)};
  const Status valid = ValidateQuorumConfig(config);
  if (!valid.ok()) {
    std::cerr << valid.message() << "\n";
    return 1;
  }
  const std::string scenario = args.GetString("scenario", "lnkd-disk");
  PredictorOptions options;
  options.trials = args.GetInt("trials", 200000);
  if (!ParseBackendFlags(args, &options) || !args.Check("predict")) return 1;
  return PrintPrediction(config, ScenarioModelOrDefault(scenario, config.n),
                         options);
}

int CmdSla(const Args& args) {
  const std::string scenario = args.GetString("scenario", "lnkd-disk");
  SlaOptimizer optimizer(
      [&scenario](int n) { return ScenarioModelOrDefault(scenario, n); },
      args.GetInt("trials", 50000), /*seed=*/42);
  SlaConstraints constraints;
  constraints.min_n = args.GetInt("min-n", 2);
  constraints.max_n = args.GetInt("max-n", 5);
  constraints.min_write_quorum = args.GetInt("min-w", 1);
  constraints.consistency_probability = args.GetDouble("prob", 0.999);
  constraints.max_t_visibility_ms = args.GetDouble("max-t", 10.0);
  SlaObjective objective;
  const double read_fraction = args.GetDouble("read-fraction", 0.5);
  objective.read_weight = read_fraction;
  objective.write_weight = 1.0 - read_fraction;
  if (!args.Check("sla")) return 1;
  const auto best = optimizer.Optimize(constraints, objective);
  if (best.status().code() == StatusCode::kNotFound) {
    std::cout << "no configuration satisfies the SLA: "
              << best.status().message() << "\n";
    return 1;
  }
  if (!best.ok()) {
    std::cerr << best.status().message() << "\n";
    return 1;
  }
  const auto& c = best.value();
  std::printf(
      "best: %s — t@%.2f%%: %.2f ms, Lr %.2f ms, Lw %.2f ms "
      "(objective %.2f ms)\n",
      c.config.ToString().c_str(),
      100.0 * constraints.consistency_probability, c.t_visibility_ms,
      c.read_latency_ms, c.write_latency_ms, c.objective);
  return 0;
}

int CmdLevels(const Args& args) {
  const int n = args.GetInt("n", 3);
  const auto read_level = ParseLevel(args.GetString("read", "one"));
  const auto write_level = ParseLevel(args.GetString("write", "one"));
  const std::string scenario = args.GetString("scenario", "lnkd-disk");
  PredictorOptions options;
  options.trials = args.GetInt("trials", 200000);
  if (!ParseBackendFlags(args, &options) || !args.Check("levels")) return 1;
  if (!read_level.ok() || !write_level.ok()) {
    std::cerr << (read_level.ok() ? write_level.status().message()
                                  : read_level.status().message())
              << "\n";
    return 1;
  }
  const auto config =
      kvs::MakeQuorumConfig(n, read_level.value(), write_level.value());
  if (!config.ok()) {
    std::cerr << config.status().message() << "\n";
    return 1;
  }
  std::printf("consistency levels %s/%s at N=%d =>\n",
              kvs::ToString(read_level.value()).c_str(),
              kvs::ToString(write_level.value()).c_str(), n);
  return PrintPrediction(config.value(), ScenarioModelOrDefault(scenario, n),
                         options);
}

int CmdFit(const Args& args) {
  const std::string path = args.GetString("trace", "");
  if (!args.Check("fit")) return 1;
  if (path.empty()) {
    std::cerr << "--trace=<file> required (one latency per line)\n";
    return 1;
  }
  const auto samples = LoadLatencyTrace(path);
  if (!samples.ok()) {
    std::cerr << samples.status().message() << "\n";
    return 1;
  }
  std::vector<PercentilePoint> points;
  auto sorted = samples.value();
  std::sort(sorted.begin(), sorted.end());
  for (double pct : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    points.push_back({pct, QuantileSorted(sorted, pct / 100.0)});
  }
  const ParetoExpFit fit = FitParetoExponential(points);
  std::cout << "fit over " << sorted.size() << " samples:\n  "
            << fit.Describe() << "\n";
  return 0;
}

/// Resolves a path-valued flag that may also be passed bare: absent -> "",
/// bare `--flag` -> `fallback`, `--flag=path` -> path.
std::string PathFlag(const Args& args, const std::string& key,
                     const std::string& fallback) {
  const std::string value = args.GetString(key, "");
  return value == "true" ? fallback : value;
}

/// Writes an exporter artifact, echoing where it went.
bool WriteArtifact(const std::string& path, const std::string& payload,
                   const char* what) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return false;
  }
  out << payload;
  std::printf("%s -> %s\n", what, path.c_str());
  return true;
}

int CmdSimulate(const Args& args) {
  Config config;
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  config.scenario = args.GetString("scenario", "lnkd-disk");
  config.quorum.n = args.GetInt("n", 3);
  config.quorum.r = args.GetInt("r", 1);
  config.quorum.w = args.GetInt("w", 1);
  if (args.GetString("fanout", "all") == "quorum") {
    config.quorum.fanout = ReadFanout::kQuorumOnly;
  }
  config.workload.writes = args.GetInt("writes", 5000);
  config.workload.write_spacing_ms = args.GetDouble("spacing-ms", 250.0);
  config.read_repair = args.GetBool("read-repair");
  config.anti_entropy_interval_ms = args.GetDouble("anti-entropy-ms", 0.0);
  config.request_timeout_ms = args.GetDouble("timeout-ms", 1000.0);
  config.phi_detector = args.GetBool("phi-detector");
  config.hedge.enabled = args.GetBool("hedge");
  config.hedge.quantile = args.GetDouble("hedge-quantile", 0.99);
  config.hedge.delay_ms = args.GetDouble("hedge-delay-ms", 0.0);
  config.retry.max_attempts = args.GetInt("retries", 1);
  config.retry.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  config.retry.downgrade_reads = args.GetBool("downgrade-on-retry");
  config.faults.specs = args.GetString("fault", "");

  // --sla="p=0.999,t=10,p99<=15" declares the staleness/latency target;
  // --controller switches the closed loop on against it (see kvs/controller.h).
  const std::string sla_spec = args.GetString("sla", "");
  if (!sla_spec.empty()) {
    const StatusOr<SlaTarget> target = SlaTarget::Parse(sla_spec);
    if (!target.ok()) {
      std::cerr << target.status().message() << "\n";
      return 1;
    }
    config.WithSla(target.value());
  }
  if (args.GetBool("controller")) {
    if (sla_spec.empty()) {
      std::cerr << "--controller requires --sla=\"p=...,t=...,p99<=...\"\n";
      return 1;
    }
    config.controller.enabled = true;
    config.controller.epoch_ms = args.GetDouble("controller-epoch-ms", 2000.0);
    // --backend steers the controller's per-epoch predictor (mc keeps the
    // historical bitwise-deterministic decision streams; analytic/auto run
    // the grid solver over the sensed legs).
    const StatusOr<PredictorBackend> backend =
        ParsePredictorBackend(args.GetString("backend", "mc"));
    if (!backend.ok()) {
      std::cerr << backend.status().message() << "\n";
      return 1;
    }
    config.WithPredictorBackend(backend.value());
    config.controller.grid_bins =
        args.GetInt("grid-bins", config.controller.grid_bins);
    const double grid_max = args.GetDouble("grid-max-ms", -1.0);
    if (grid_max >= 0.0) {
      // WithPredictorGrid pins the bound literally; the default keeps the
      // tail-aware auto-scaled grid.
      config.WithPredictorGrid(grid_max, config.controller.grid_bins);
    }
  }

  const std::string trace_out = PathFlag(args, "trace", "pbs_trace.json");
  const std::string audit_out = PathFlag(args, "audit", "pbs_audit.jsonl");
  const std::string metrics_out =
      PathFlag(args, "metrics-out", "pbs_metrics.jsonl");
  config.obs.trace_enabled = !trace_out.empty() || !audit_out.empty();
  config.obs.trace_sample_every = args.GetInt("trace-sample-every", 1);

  // Streaming telemetry: --window-ms switches the windowed time-series on;
  // --monitor layers the drift monitor on top (Validate enforces --sla).
  // Asking for a telemetry artifact without a cadence implies the default.
  const std::string timeseries_out =
      PathFlag(args, "timeseries-out", "pbs_telemetry.jsonl");
  const std::string dashboard_out =
      PathFlag(args, "dashboard-out", "pbs_dashboard.html");
  double window_ms = args.GetDouble("window-ms", 0.0);
  if (window_ms <= 0.0 && (!timeseries_out.empty() || !dashboard_out.empty() ||
                           args.GetBool("monitor"))) {
    window_ms = 500.0;
  }
  if (window_ms > 0.0) {
    config.WithTelemetry(window_ms,
                         static_cast<size_t>(args.GetInt("windows", 512)));
  }
  if (args.GetBool("monitor")) config.WithMonitor();
  if (!args.Check("simulate")) return 1;

  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::cerr << valid.message() << "\n";
    return 1;
  }
  const kvs::StalenessExperimentOptions options =
      config.BuildExperiment().value();
  const StatusOr<kvs::FaultSchedule> built = config.BuildFaultSchedule();
  if (!built.ok()) {
    std::cerr << built.status().message() << "\n";
    return 1;
  }
  const kvs::FaultSchedule& faults = built.value();

  const auto result =
      config.faults.any()
          ? kvs::RunStalenessExperimentWithFaults(options, faults)
          : kvs::RunStalenessExperiment(options);
  std::printf("event-driven cluster, %d writes, %s:\n", options.writes,
              options.cluster.quorum.ToString().c_str());
  TextTable table({"t after commit (ms)", "P(consistent)", "probes"});
  for (const auto& point : result.t_visibility) {
    table.AddRow({FormatDouble(point.t, 1),
                  FormatDouble(point.ProbConsistent(), 4),
                  std::to_string(point.trials)});
  }
  table.Print(std::cout);
  std::printf("detector: %lld consistent, %lld stale, %lld false-positive\n",
              static_cast<long long>(result.detector_consistent),
              static_cast<long long>(result.detector_stale),
              static_cast<long long>(result.detector_false_positives));
  const kvs::ClusterMetrics& metrics = result.final_metrics;
  if (!result.read_latencies.empty()) {
    const std::vector<double> q =
        Quantiles(result.read_latencies, {0.5, 0.99, 0.999});
    std::printf("read latency (ms): p50=%.3f p99=%.3f p99.9=%.3f\n", q[0],
                q[1], q[2]);
  }
  if (config.faults.any() || config.hedge.enabled ||
      config.retry.max_attempts > 1) {
    std::printf(
        "chaos: hedges=%lld won=%lld dup-suppressed=%lld+%lld "
        "retries=%lld+%lld deadline-misses=%lld downgrades=%lld "
        "dropped=%lld duplicated=%lld monotonic-violations=%lld\n",
        static_cast<long long>(metrics.hedged_reads_sent),
        static_cast<long long>(metrics.hedged_reads_won),
        static_cast<long long>(metrics.duplicate_responses_suppressed),
        static_cast<long long>(metrics.duplicate_acks_suppressed),
        static_cast<long long>(metrics.client_read_retries),
        static_cast<long long>(metrics.client_write_retries),
        static_cast<long long>(metrics.client_deadline_misses),
        static_cast<long long>(metrics.consistency_downgrades),
        static_cast<long long>(result.network_messages_dropped),
        static_cast<long long>(result.network_messages_duplicated),
        static_cast<long long>(metrics.monotonic_read_violations));
  }
  if (config.controller.enabled) {
    std::printf(
        "controller: epochs=%lld steps=%lld rollbacks=%lld holds=%lld "
        "fresh=%lld stale=%lld digest=%016llx\n",
        static_cast<long long>(metrics.controller_epochs),
        static_cast<long long>(metrics.controller_steps),
        static_cast<long long>(metrics.controller_rollbacks),
        static_cast<long long>(metrics.controller_holds),
        static_cast<long long>(metrics.reads_fresh_measured),
        static_cast<long long>(metrics.reads_stale_measured),
        static_cast<unsigned long long>(result.controller_digest));
    if (!result.controller_history.empty()) {
      const obs::AdaptationRecord& last = result.controller_history.back();
      std::printf(
          "controller final config: R=[%d..%d] mix=%.2f W=%d hedge=%s@%.2f "
          "retries=%d\n",
          last.r_lo, last.r_hi, last.mix, last.w,
          last.hedge_enabled ? "on" : "off", last.hedge_quantile,
          last.retry_max_attempts);
    }
  }

  if (config.obs.monitor_enabled) {
    std::printf("monitor: windows=%zu alerts=%zu\n",
                result.monitor_samples.size(), result.monitor_alerts.size());
    for (const obs::Alert& alert : result.monitor_alerts) {
      std::printf("  [%s] window=%lld t=%.0fms %s\n",
                  obs::AlertKindName(alert.kind),
                  static_cast<long long>(alert.window_id), alert.time_ms,
                  alert.detail.c_str());
    }
  }

  bool exported_ok = true;
  if (!metrics_out.empty()) {
    exported_ok &= WriteArtifact(
        metrics_out, obs::MetricsJsonl(result.registry, result.metrics_header),
        "metrics (jsonl)");
  }
  if (!trace_out.empty()) {
    exported_ok &= WriteArtifact(trace_out, obs::ChromeTraceJson(result.trace),
                                 "chrome trace");
  }
  if (!audit_out.empty()) {
    exported_ok &= WriteArtifact(
        audit_out,
        obs::StalenessAuditJsonl(result.trace, result.controller_history,
                                 /*stale_only=*/true,
                                 config.obs.telemetry_window_ms),
        "staleness audit (jsonl)");
  }
  if (window_ms > 0.0 && !timeseries_out.empty()) {
    exported_ok &= WriteArtifact(timeseries_out, result.telemetry_jsonl,
                                 "telemetry time-series (jsonl)");
  }
  if (window_ms > 0.0 && !dashboard_out.empty()) {
    exported_ok &= WriteArtifact(
        dashboard_out,
        obs::RenderDashboardHtml(result.telemetry_jsonl,
                                 "pbs simulate — " +
                                     options.cluster.quorum.ToString()),
        "consistency dashboard (html)");
  }
  return exported_ok ? 0 : 1;
}

int CmdReport(const Args& args) {
  const std::string in_path = args.GetString("telemetry", "pbs_telemetry.jsonl");
  const std::string out_path = args.GetString("out", "pbs_report.html");
  const std::string title = args.GetString("title", "PBS consistency report");
  if (!args.Check("report")) return 1;
  std::ifstream in(in_path);
  if (!in) {
    std::cerr << "cannot open " << in_path
              << " (run `pbs simulate --timeseries-out=...` first)\n";
    return 1;
  }
  std::string telemetry((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  return WriteArtifact(out_path, obs::RenderDashboardHtml(telemetry, title),
                       "consistency dashboard (html)")
             ? 0
             : 1;
}

int CmdPredictTrace(const Args& args) {
  WarsDistributions legs;
  legs.name = "trace";
  struct LegArg {
    const char* flag;
    DistributionPtr* slot;
    std::string path;
  };
  LegArg leg_args[] = {{"w", &legs.w, ""}, {"a", &legs.a, ""},
                       {"rr", &legs.r, ""}, {"s", &legs.s, ""}};
  for (auto& leg : leg_args) leg.path = args.GetString(leg.flag, "");
  const QuorumConfig config{args.GetInt("n", 3), args.GetInt("r", 1),
                            args.GetInt("w-quorum", 1)};
  PredictorOptions options;
  options.trials = args.GetInt("trials", 200000);
  if (!ParseBackendFlags(args, &options) || !args.Check("predict-trace")) {
    return 1;
  }
  for (auto& leg : leg_args) {
    if (leg.path.empty()) {
      std::cerr << "--" << leg.flag << "=<trace file> required "
                << "(legs: --w --a --rr --s)\n";
      return 1;
    }
    auto dist = LoadTraceDistribution(leg.path);
    if (!dist.ok()) {
      std::cerr << dist.status().message() << "\n";
      return 1;
    }
    *leg.slot = dist.value();
  }
  const Status valid = ValidateQuorumConfig(config);
  if (!valid.ok()) {
    std::cerr << valid.message() << "\n";
    return 1;
  }
  return PrintPrediction(config, MakeIidModel(legs, config.n), options);
}

void Usage() {
  std::cout <<
      "pbs <command> [--key=value ...]\n"
      "commands:\n"
      "  predict        PBS predictions for one (N, R, W) configuration\n"
      "  sla            cheapest configuration meeting a staleness SLA\n"
      "  levels         predictions for Cassandra-style consistency levels\n"
      "  fit            fit a Pareto+Exp mixture to a latency trace file\n"
      "  simulate       run the event-driven Dynamo-style cluster\n"
      "  report         render the HTML dashboard from a telemetry artifact\n"
      "  predict-trace  predictions from measured W/A/R/S leg traces\n"
      "run a command with no flags to use paper defaults; see the header\n"
      "comment of tools/pbs_cli.cc for the full flag list.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (!args.ok()) return 1;
  if (command == "predict") return CmdPredict(args);
  if (command == "sla") return CmdSla(args);
  if (command == "levels") return CmdLevels(args);
  if (command == "fit") return CmdFit(args);
  if (command == "simulate") return CmdSimulate(args);
  if (command == "report") return CmdReport(args);
  if (command == "predict-trace") return CmdPredictTrace(args);
  Usage();
  return command == "help" || command == "--help" ? 0 : 1;
}
