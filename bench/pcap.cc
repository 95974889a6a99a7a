// PCAP harness: closed-loop consistency control vs every static quorum
// under gray failures (the "probabilistic consistency/availability/
// partition" tuning loop of kvs/controller.h).
//
// The declared SLA is "fraction p of reads fresher than t ms, at read p99
// <= L ms". Two chaos scenarios stress the staleness/latency trade-off in
// opposite directions: a replica serving everything 20x slow for the whole
// run, and a replica crash/recover-flapping. Against each scenario the
// harness runs (a) the full static (R, W) lattice at N=3 with the knobs the
// controller starts from (hedging off, single attempt) and (b) the same
// workload with the ConsistencyController active. All cells share the same
// per-trial seed stream (RunCampaign both ways), so the controller
// is the only variable.
//
// Headline check: in both scenarios the controller meets BOTH bounds while
// every static lattice point violates at least one — low-R statics miss the
// freshness target, high-R statics blow the latency budget when the slow or
// flapping replica lands in the read quorum. Freshness is measured the same
// way for every cell: the empirical probe P(consistent | t = sla.t) of the
// Section 5.2 workload; latency is the pooled client read p99.
//
// Self-contained harness in the chaos.cc mold: paper-style table on stdout,
// machine-readable bench_results/BENCH_pcap.{json,csv}, nonzero exit when a
// check fails.
//
// Usage: pcap [--trials=small|full] [--out-dir=DIR] [--threads=N]

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "dist/production.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "obs/dashboard.h"
#include "obs/monitor.h"
#include "util/parallel.h"

namespace pbs {
namespace {

// The declared SLA every cell is judged against. Calibrated so the chaos
// scenarios genuinely pinch: a fresh-enough static needs R high enough that
// the degraded replica's tail leaks into p99, and a fast-enough static
// reads too few replicas to stay fresh (LNKD-DISK write legs propagate
// slowly, so R=1 reads genuinely race replication at t=10ms). A read that
// fails outright is neither fresh nor fast: each cell also gets a failure
// budget of (1 - p) of its reads.
constexpr double kSlaFreshProbability = 0.99;
constexpr double kSlaStalenessBoundMs = 10.0;
constexpr double kSlaReadP99Ms = 8.0;

struct Scenario {
  std::string name;
  std::function<kvs::FaultSchedule(double horizon, uint64_t seed)> faults;
};

struct Cell {
  std::string scenario;
  std::string config;  // "R=1 W=2" or "controller"
  bool controller = false;
  double fresh_at_t = 0.0;  // probe P(consistent | t = kSlaStalenessBoundMs)
  double read_p50 = 0.0;
  double read_p99 = 0.0;
  int64_t reads = 0;
  int64_t reads_failed = 0;
  int64_t decisions = 0;
  int64_t steps = 0;
  int64_t rollbacks = 0;
  uint64_t digest = 0;
  std::string final_config;
  bool fresh_ok = false;
  bool latency_ok = false;
  bool avail_ok = false;

  bool MeetsSla() const { return fresh_ok && latency_ok && avail_ok; }
  const char* Verdict() const {
    if (MeetsSla()) return "met";
    if (!fresh_ok) return "fresh";
    if (!latency_ok) return "p99";
    return "avail";
  }
};

kvs::CampaignOptions BaseOptions(const Scenario& scenario, int trials,
                                        int writes) {
  kvs::CampaignOptions options;
  options.experiment.cluster.quorum = {3, 1, 2};
  options.experiment.cluster.legs = LnkdDisk();
  options.experiment.cluster.request_timeout_ms = 200.0;
  // kQuorumOnly makes R the real latency/staleness dial: reads contact only
  // an R-subset, so a degraded replica in the subset stalls the read (no
  // free extra responses) and hedges have an untried replica to recruit.
  options.experiment.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.experiment.writes = writes;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, kSlaStalenessBoundMs, 50.0};
  options.trials = trials;
  options.seed = 20240;  // shared by every cell: paired comparison
  options.faults = scenario.faults;
  return options;
}

Cell RunCell(const Scenario& scenario, kvs::CampaignOptions options,
             const std::string& label, bool controller,
             const PbsExecutionOptions& exec) {
  const kvs::CampaignResult result = kvs::RunCampaign(options, exec);
  Cell cell;
  cell.scenario = scenario.name;
  cell.config = label;
  cell.controller = controller;
  const kvs::ChaosSummary& pooled = result.pooled;
  for (size_t i = 0; i < pooled.probe_offsets_ms.size(); ++i) {
    if (pooled.probe_offsets_ms[i] == kSlaStalenessBoundMs) {
      cell.fresh_at_t = pooled.ProbConsistentAtIndex(i);
    }
  }
  cell.read_p50 = pooled.read_p50;
  cell.read_p99 = pooled.read_p99;
  cell.reads = pooled.reads_started;
  cell.reads_failed = pooled.reads_failed;
  cell.digest = result.pooled_digest;
  for (const kvs::CampaignTrialSummary& trial : result.trials) {
    cell.decisions += trial.decisions;
    cell.steps += trial.steps;
    cell.rollbacks += trial.rollbacks;
  }
  if (controller && !result.trials.empty()) {
    const kvs::CampaignTrialSummary& last = result.trials.back();
    char buffer[96];
    std::snprintf(buffer, sizeof buffer,
                  "R=[%d..%d] mix=%.2f W=%d hedge=%s retries=%d",
                  last.final_r_lo, last.final_r_hi, last.final_mix,
                  last.final_w, last.final_hedge ? "on" : "off",
                  last.final_retry_attempts);
    cell.final_config = buffer;
  }
  cell.fresh_ok = cell.fresh_at_t >= kSlaFreshProbability;
  cell.latency_ok = cell.read_p99 <= kSlaReadP99Ms;
  cell.avail_ok =
      static_cast<double>(cell.reads_failed) <=
      (1.0 - kSlaFreshProbability) * static_cast<double>(cell.reads);
  return cell;
}

void WriteJson(const std::filesystem::path& path, const std::string& mode,
               const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"pcap\",\n  \"mode\": \"%s\",\n",
               mode.c_str());
  std::fprintf(f,
               "  \"sla\": {\"fresh_probability\": %.4f, "
               "\"staleness_bound_ms\": %.1f, \"read_p99_ms\": %.1f},\n",
               kSlaFreshProbability, kSlaStalenessBoundMs, kSlaReadP99Ms);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"config\": \"%s\", "
        "\"controller\": %s, \"fresh_at_t\": %.6f, "
        "\"read_p50_ms\": %.6f, \"read_p99_ms\": %.6f, "
        "\"reads\": %" PRId64 ", \"reads_failed\": %" PRId64 ", "
        "\"decisions\": %" PRId64 ", \"steps\": %" PRId64 ", "
        "\"rollbacks\": %" PRId64 ", \"decision_digest\": \"%016" PRIx64
        "\", \"final_config\": \"%s\", \"fresh_ok\": %s, "
        "\"latency_ok\": %s, \"avail_ok\": %s, \"meets_sla\": %s}%s\n",
        c.scenario.c_str(), c.config.c_str(), c.controller ? "true" : "false",
        c.fresh_at_t, c.read_p50, c.read_p99, c.reads, c.reads_failed,
        c.decisions, c.steps, c.rollbacks, c.digest, c.final_config.c_str(),
        c.fresh_ok ? "true" : "false", c.latency_ok ? "true" : "false",
        c.avail_ok ? "true" : "false", c.MeetsSla() ? "true" : "false",
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

void WriteCsv(const std::filesystem::path& path,
              const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return;
  }
  std::fprintf(f,
               "scenario,config,controller,fresh_at_t,read_p50_ms,"
               "read_p99_ms,reads,reads_failed,decisions,steps,rollbacks,"
               "fresh_ok,latency_ok,avail_ok,meets_sla\n");
  for (const Cell& c : cells) {
    std::fprintf(f,
                 "%s,%s,%d,%.6f,%.6f,%.6f,%" PRId64 ",%" PRId64 ",%" PRId64
                 ",%" PRId64 ",%" PRId64 ",%d,%d,%d,%d\n",
                 c.scenario.c_str(), c.config.c_str(), c.controller ? 1 : 0,
                 c.fresh_at_t, c.read_p50, c.read_p99, c.reads,
                 c.reads_failed, c.decisions, c.steps, c.rollbacks,
                 c.fresh_ok ? 1 : 0, c.latency_ok ? 1 : 0, c.avail_ok ? 1 : 0,
                 c.MeetsSla() ? 1 : 0);
  }
  std::fclose(f);
}

bool WriteText(const std::filesystem::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.string().c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

// The live-monitor acceptance (ISSUE 10): a replica turns 10x slow mid-run
// and the drift monitor must raise prediction_drift within three windows
// of the onset, while the fault-free control run raises nothing. The
// faulted run's telemetry JSONL and rendered dashboard are written next to
// the pcap tables so CI uploads a browsable artifact of the detection.
int RunDriftMonitorCheck(const std::filesystem::path& dir) {
  kvs::StalenessExperimentOptions options;
  options.cluster.quorum = {3, 1, 1};
  options.cluster.legs = LnkdSsd();
  // kQuorumOnly again: under kAllN an R=1 read keeps the fastest of N
  // responses and the slow replica never surfaces in the measurements.
  options.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.cluster.request_timeout_ms = 200.0;
  options.cluster.sla.fresh_probability = 0.99;
  options.cluster.sla.staleness_bound_ms = 10.0;
  options.cluster.sla.read_p99_ms = 5.0;
  options.cluster.obs.telemetry_window_ms = 500.0;
  options.cluster.obs.monitor_enabled = true;
  options.writes = 400;
  options.write_spacing_ms = 50.0;
  options.seed = 7;

  constexpr double kFaultStartMs = 10000.0;
  const int64_t fault_window = static_cast<int64_t>(
      kFaultStartMs / options.cluster.obs.telemetry_window_ms);
  kvs::FaultSchedule faults;
  faults.AddSlowNode(kFaultStartMs, /*end=*/25000.0, /*node=*/2,
                     /*delay_mult=*/10.0);
  const kvs::StalenessExperimentResult faulted =
      kvs::RunStalenessExperimentWithFaults(options, faults);
  const kvs::StalenessExperimentResult control =
      kvs::RunStalenessExperiment(options);

  int64_t first_drift = -1;
  for (const obs::Alert& alert : faulted.monitor_alerts) {
    if (alert.kind == obs::AlertKind::kPredictionDrift) {
      first_drift = alert.window_id;
      break;
    }
  }
  std::printf(
      "drift monitor: fault at window %" PRId64 ", first prediction_drift "
      "at %" PRId64 " (%zu alert(s)); control run %zu alert(s)\n",
      fault_window, first_drift, faulted.monitor_alerts.size(),
      control.monitor_alerts.size());

  int failures = 0;
  if (first_drift < fault_window || first_drift > fault_window + 3) {
    std::printf("CHECK FAIL: prediction_drift expected within 3 windows of "
                "the fault (window %" PRId64 "), got %" PRId64 "\n",
                fault_window, first_drift);
    ++failures;
  }
  if (!control.monitor_alerts.empty()) {
    std::printf("CHECK FAIL: fault-free control run raised %zu alert(s); "
                "expected none\n",
                control.monitor_alerts.size());
    ++failures;
  }
  if (!WriteText(dir / "pcap_telemetry.jsonl", faulted.telemetry_jsonl) ||
      !WriteText(dir / "pcap_dashboard.html",
                 obs::RenderDashboardHtml(
                     faulted.telemetry_jsonl,
                     "pcap drift monitor — 10x slow replica at t=10s"))) {
    ++failures;
  }
  return failures;
}

int Main(int argc, char** argv) {
  bool small = false;
  std::string out_dir = "bench_results";
  PbsExecutionOptions exec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trials=small") {
      small = true;
    } else if (arg == "--trials=full") {
      small = false;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      exec.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else {
      std::fprintf(stderr,
                   "usage: pcap [--trials=small|full] [--out-dir=DIR] "
                   "[--threads=N]\n");
      return 2;
    }
  }
  const int trials = small ? 2 : 4;
  const int writes = small ? 300 : 1200;

  using kvs::FaultSchedule;
  std::vector<Scenario> scenarios;
  scenarios.push_back({"slow_replica_20x",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddSlowNode(0.0, horizon, /*node=*/0,
                                       /*delay_mult=*/20.0);
                         return s;
                       }});
  scenarios.push_back({"flapping_replica",
                       [](double horizon, uint64_t) {
                         FaultSchedule s;
                         s.AddFlappingNode(0.0, horizon, /*node=*/0,
                                           /*up_ms=*/300.0,
                                           /*down_ms=*/200.0);
                         return s;
                       }});

  std::printf(
      "pcap (%s mode): %d trials x %d writes per cell, SLA "
      "p=%.2f t=%.0fms p99<=%.0fms\n",
      small ? "small" : "full", trials, writes, kSlaFreshProbability,
      kSlaStalenessBoundMs, kSlaReadP99Ms);
  std::printf("%-18s %-12s %10s %10s %8s %6s %5s  %s\n", "scenario", "config",
              "fresh@t", "p99(ms)", "steps", "rollbk", "SLA",
              "controller final");

  SlaTarget sla;
  sla.fresh_probability = kSlaFreshProbability;
  sla.staleness_bound_ms = kSlaStalenessBoundMs;
  sla.read_p99_ms = kSlaReadP99Ms;

  std::vector<Cell> cells;
  for (const Scenario& scenario : scenarios) {
    // The static (R, W) lattice at N=3, knobs pinned to the controller's
    // starting point (hedging off, single attempt).
    for (int r = 1; r <= 3; ++r) {
      for (int w = 1; w <= 3; ++w) {
        kvs::CampaignOptions options =
            BaseOptions(scenario, trials, writes);
        options.experiment.cluster.quorum = {3, r, w};
        char label[16];
        std::snprintf(label, sizeof label, "R=%d W=%d", r, w);
        cells.push_back(RunCell(scenario, options, label,
                                /*controller=*/false, exec));
        const Cell& c = cells.back();
        std::printf("%-18s %-12s %10.4f %10.3f %8" PRId64 " %6" PRId64
                    " %5s\n",
                    c.scenario.c_str(), c.config.c_str(), c.fresh_at_t,
                    c.read_p99, c.steps, c.rollbacks, c.Verdict());
        std::fflush(stdout);
      }
    }
    // The closed loop, starting from the same lattice.
    kvs::CampaignOptions options =
        BaseOptions(scenario, trials, writes);
    options.experiment.cluster.sla = sla;
    options.experiment.cluster.controller.enabled = true;
    options.experiment.cluster.controller.epoch_ms = 500.0;
    options.experiment.cluster.controller.trials_per_eval = small ? 400 : 800;
    options.experiment.cluster.controller.min_leg_samples = 48;
    cells.push_back(RunCell(scenario, options, "controller",
                            /*controller=*/true, exec));
    const Cell& c = cells.back();
    std::printf("%-18s %-12s %10.4f %10.3f %8" PRId64 " %6" PRId64
                " %5s  %s\n",
                c.scenario.c_str(), c.config.c_str(), c.fresh_at_t,
                c.read_p99, c.steps, c.rollbacks, c.Verdict(),
                c.final_config.c_str());
    std::fflush(stdout);
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::filesystem::path dir(out_dir);
  WriteJson(dir / "BENCH_pcap.json", small ? "small" : "full", cells);
  WriteCsv(dir / "BENCH_pcap.csv", cells);
  std::printf("wrote %s/BENCH_pcap.{json,csv}\n", out_dir.c_str());

  // Acceptance: per scenario, the controller meets both bounds and every
  // static lattice point violates at least one — plus the live drift
  // monitor catches a mid-run degradation (and stays quiet without one).
  int failures = RunDriftMonitorCheck(dir);
  std::printf("wrote %s/pcap_telemetry.jsonl and %s/pcap_dashboard.html\n",
              out_dir.c_str(), out_dir.c_str());
  for (const Scenario& scenario : scenarios) {
    for (const Cell& c : cells) {
      if (c.scenario != scenario.name) continue;
      if (c.controller && !c.MeetsSla()) {
        std::printf("CHECK FAIL: %s controller violates the SLA on %s "
                    "(fresh@t=%.4f want >= %.2f, p99=%.3f want <= %.1f, "
                    "failed %" PRId64 "/%" PRId64 ")\n",
                    c.scenario.c_str(), c.Verdict(), c.fresh_at_t,
                    kSlaFreshProbability, c.read_p99, kSlaReadP99Ms,
                    c.reads_failed, c.reads);
        ++failures;
      }
      if (!c.controller && c.MeetsSla()) {
        std::printf("CHECK FAIL: static %s meets the SLA under %s "
                    "(fresh@t=%.4f, p99=%.3f) — the scenario does not pinch\n",
                    c.config.c_str(), c.scenario.c_str(), c.fresh_at_t,
                    c.read_p99);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("headline: controller meets p=%.2f@t=%.0fms, p99<=%.0fms in "
                "both scenarios; all %d static lattice points violate a "
                "bound\n",
                kSlaFreshProbability, kSlaStalenessBoundMs, kSlaReadP99Ms,
                static_cast<int>(cells.size()) - 2);
    std::printf("all pcap checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pbs

int main(int argc, char** argv) { return pbs::Main(argc, argv); }
