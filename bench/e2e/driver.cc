// The benchmark's only file that calls into the library. Each workload's
// Request() makes the same public calls as the `pbs` CLI command it stands
// for (tools/pbs_cli.cc), wrapped in spans; CheckLast() and Finish() check
// the outputs; Replays() times each layer's public functions directly for
// the traced run's per-layer metrics.

#include "driver.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <iterator>
#include <numeric>
#include <thread>
#include <utility>

#include "core/adaptive.h"
#include "core/latency.h"
#include "core/predictor.h"
#include "core/tvisibility.h"
#include "core/wars.h"
#include "dist/sampler.h"
#include "kvs/experiment.h"
#include "kvs/rebalance_experiment.h"
#include "obs/dashboard.h"
#include "obs/exporters.h"
#include "pbs/config.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace pbs {
namespace e2e {

void Counts::Add(const Counts& o) {
  requests += o.requests;
  ops += o.ops;
  events += o.events;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  messages += o.messages;
  dropped += o.dropped;
  duplicated += o.duplicated;
  draws += o.draws;
  reads += o.reads;
  hedges_sent += o.hedges_sent;
  hedges_won += o.hedges_won;
  retries += o.retries;
  deadline_misses += o.deadline_misses;
  migration_transfers += o.migration_transfers;
  stale_routes += o.stale_routes;
  moved_fraction += o.moved_fraction;
  min_fraction += o.min_fraction;
  controller_epochs += o.controller_epochs;
  controller_steps += o.controller_steps;
  controller_rollbacks += o.controller_rollbacks;
  windows += o.windows;
}

namespace {

using Clock = std::chrono::steady_clock;

// `pbs predict`'s default trial budget.
constexpr int kPredictTrials = 200000;

// `pbs predict` runs the Monte Carlo engine on every hardware thread; the
// benchmark caps that at 4 so one machine's numbers compare across runs.
int PredictThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Quantiles(std::move(values), {0.5})[0];
}

/// Median wall time of `reps` calls of `fn`, in ms.
template <typename Fn>
double MedianMs(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn(i);
    times.push_back(MsSince(start));
  }
  return Median(std::move(times));
}

// Keeps replayed results observable so the calls cannot be optimized away.
volatile double g_sink = 0.0;

int64_t CounterValue(const obs::Registry& registry, const char* name) {
  const obs::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

/// The cluster counters every simulated run exports into its registry.
Counts ClusterCounts(const obs::Registry& r) {
  Counts c;
  c.requests = 1;
  c.events = CounterValue(r, "sim/events_processed");
  c.max_queue_depth = CounterValue(r, "sim/max_queue_depth");
  c.messages = CounterValue(r, "net/messages_sent");
  c.dropped = CounterValue(r, "net/messages_dropped");
  c.duplicated = CounterValue(r, "net/messages_duplicated");
  c.draws = c.messages;  // every message draws one WARS leg latency
  c.reads = CounterValue(r, "kvs/reads_started");
  c.hedges_sent = CounterValue(r, "kvs/hedged_reads_sent");
  c.hedges_won = CounterValue(r, "kvs/hedged_reads_won");
  c.retries = CounterValue(r, "kvs/client_read_retries") +
              CounterValue(r, "kvs/client_write_retries");
  c.deadline_misses = CounterValue(r, "kvs/client_deadline_misses");
  c.migration_transfers = CounterValue(r, "kvs/migration_transfers_sent");
  c.stale_routes = CounterValue(r, "kvs/stale_routes_forwarded");
  c.controller_epochs = CounterValue(r, "kvs/controller_epochs");
  c.controller_steps = CounterValue(r, "kvs/controller_steps");
  c.controller_rollbacks = CounterValue(r, "kvs/controller_rollbacks");
  return c;
}

// -- Layer replays (traced runs only) ----------------------------------------

/// A (scenario, quorum) point the layer replays run on.
struct Cell {
  std::string scenario;
  QuorumConfig quorum;
};

ReplicaLatencyModelPtr ModelFor(const Cell& cell) {
  return ScenarioModel(cell.scenario, cell.quorum.n).value();
}

// Self-rescheduling event: `depth` of these stay pending at once, so the
// replay keeps the event queue as deep as the workload's own peak.
struct ChurnTick {
  Simulator* sim;
  int64_t* remaining;
  double delay;
  void operator()() const {
    if (--*remaining > 0) sim->Schedule(delay, ChurnTick{sim, remaining, delay});
  }
};

/// ns per event of Simulator::Schedule + Run at the given queue depth.
double SimEventNs(int64_t depth) {
  constexpr int64_t kEvents = 400000;
  std::vector<double> ns;
  for (int rep = 0; rep < 3; ++rep) {
    Simulator sim;
    int64_t remaining = kEvents;
    for (int64_t i = 0; i < std::max<int64_t>(1, depth); ++i) {
      sim.Schedule(0.0, ChurnTick{&sim, &remaining,
                                  1.0 + static_cast<double>(i % 17) * 0.25});
    }
    const auto start = Clock::now();
    sim.Run();
    ns.push_back(MsSince(start) * 1e6 /
                 static_cast<double>(sim.events_processed()));
  }
  return Median(std::move(ns));
}

/// ns per sample of CompiledSampler::SampleBatch over the cells' leg fits.
double SampleNs(const std::vector<Cell>& cells) {
  std::vector<CompiledSampler> samplers;
  std::vector<std::string> seen;
  for (const Cell& cell : cells) {
    if (std::find(seen.begin(), seen.end(), cell.scenario) != seen.end()) {
      continue;
    }
    seen.push_back(cell.scenario);
    const WarsDistributions legs = ScenarioLegs(cell.scenario).value();
    for (const DistributionPtr& leg : {legs.w, legs.a, legs.r, legs.s}) {
      samplers.emplace_back(leg);
    }
  }
  constexpr int kBatch = 4096;
  constexpr int kBatchesPerSampler = 64;
  std::vector<double> buffer(kBatch);
  const double samples = static_cast<double>(samplers.size()) *
                         kBatchesPerSampler * kBatch;
  return MedianMs(3, [&](int rep) {
           Rng rng(static_cast<uint64_t>(rep) + 1);
           for (const CompiledSampler& sampler : samplers) {
             for (int b = 0; b < kBatchesPerSampler; ++b) {
               sampler.SampleBatch(rng, buffer.data(), kBatch);
               g_sink = buffer[0];
             }
           }
         }) *
         1e6 / samples;
}

PbsExecutionOptions Threads(int threads) {
  PbsExecutionOptions exec;
  exec.threads = threads;
  return exec;
}

double WarsMs(const Cell& cell, int threads) {
  const auto start = Clock::now();
  const WarsTrialSet set =
      RunWarsTrials(cell.quorum, ModelFor(cell), kPredictTrials, /*seed=*/1,
                    /*want_propagation=*/true, ReadFanout::kAllN,
                    Threads(threads));
  g_sink = set.staleness_thresholds.back();
  return MsSince(start);
}

/// Replays shared by every workload, on the workload's own cells.
/// `create` also replays PbsPredictor::Create (Monte Carlo) on each cell to
/// split its cost into the WARS trials and everything else.
void CommonReplays(const std::vector<Cell>& cells, const Counts& counted,
                   bool create, std::vector<Metric>* out) {
  out->push_back({"sim.event_ns", SimEventNs(counted.max_queue_depth), "ns"});
  out->push_back({"dist.sample_ns", SampleNs(cells), "ns"});

  std::vector<double> wars_ms;
  std::vector<double> create_ms;
  for (const Cell& cell : cells) {
    wars_ms.push_back(WarsMs(cell, PredictThreads()));
    if (!create) continue;
    PredictorOptions options;
    options.trials = kPredictTrials;
    options.exec = Threads(PredictThreads());
    const auto start = Clock::now();
    const StatusOr<PbsPredictor> predictor =
        PbsPredictor::Create(cell.quorum, ModelFor(cell), options);
    create_ms.push_back(MsSince(start));
    g_sink = predictor.ok() ? predictor.value().ProbConsistent(0.0) : 0.0;
  }
  const double mean_wars =
      std::accumulate(wars_ms.begin(), wars_ms.end(), 0.0) /
      static_cast<double>(wars_ms.size());
  out->push_back({"core.wars_ms", mean_wars, "ms"});
  if (create) {
    const double mean_create =
        std::accumulate(create_ms.begin(), create_ms.end(), 0.0) /
        static_cast<double>(create_ms.size());
    out->push_back({"core.create_other_ms", mean_create - mean_wars, "ms"});
  }

  // Thread scaling of the trial engine on a fixed shape: T1 / (k * Tk).
  const Cell scaling{"lnkd-ssd", {5, 2, 2}};
  const double t1 = MedianMs(3, [&](int) { WarsMs(scaling, 1); });
  const double t2 = MedianMs(3, [&](int) { WarsMs(scaling, 2); });
  const double t4 = MedianMs(3, [&](int) { WarsMs(scaling, 4); });
  out->push_back({"core.wars_eff_t2", t1 / (2.0 * t2), "ratio"});
  out->push_back({"core.wars_eff_t4", t1 / (4.0 * t4), "ratio"});

  // One controller candidate evaluation at the controller's trial budget.
  const Cell& primary = cells.front();
  const ReplicaLatencyModelPtr model = ModelFor(primary);
  const MixedQuorum mixed{primary.quorum.n, 1, std::min(2, primary.quorum.n),
                          primary.quorum.w, 0.5};
  const SlaTarget sla{0.99, 10.0, 15.0};
  out->push_back(
      {"core.evaluate_ms", MedianMs(20, [&](int rep) {
         const MixedQuorumEvaluation eval = EvaluateMixedQuorum(
             mixed, sla, model, ControllerOptions{}.trials_per_eval,
             static_cast<uint64_t>(rep) + 1, ReadFanout::kAllN, Threads(1));
         g_sink = eval.fresh_probability;
       }),
       "ms"});

  // The analytic engine at `pbs predict`'s default quorum on the first IID
  // scenario (WAN is not IID). A strict quorum would skip the t-visibility
  // work the queries exist to measure.
  const Cell iid{primary.scenario == "wan" ? "lnkd-disk" : primary.scenario,
                 {3, 1, 1}};
  PredictorOptions analytic;
  analytic.backend = PredictorBackend::kAnalytic;
  const ReplicaLatencyModelPtr iid_model = ModelFor(iid);
  out->push_back({"core.analytic_create_ms", MedianMs(5, [&](int) {
                    const StatusOr<PbsPredictor> p =
                        PbsPredictor::Create(iid.quorum, iid_model, analytic);
                    g_sink = p.ok() ? p.value().ProbConsistent(0.0) : 0.0;
                  }),
                  "ms"});
  const PbsPredictor predictor =
      PbsPredictor::Create(iid.quorum, iid_model, analytic).value();
  constexpr int kQueryReps = 200;
  out->push_back({"core.analytic_query_us", MedianMs(3, [&](int) {
                    for (int i = 0; i < kQueryReps; ++i) {
                      g_sink = predictor.ProbConsistent(0.0) +
                               predictor.ProbConsistent(10.0) +
                               predictor.TimeForConsistency(0.999) +
                               predictor.KFreshness(2) +
                               predictor.ReadLatencyPercentile(99.9) +
                               predictor.WriteLatencyPercentile(99.9);
                    }
                  }) * 1000.0 /
                      (6.0 * kQueryReps),
                  "us"});
}

// -- predict_mc / predict_analytic -------------------------------------------

/// One `pbs predict` answer per request, cycling over every (R, W) at
/// N in {3, 5} for each scenario. The cells are visited with a stride
/// coprime to their count, so any prefix of the loop mixes scenarios and
/// quorum sizes evenly.
class PredictWorkload : public Workload {
 public:
  PredictWorkload(Tracer* tracer, PredictorBackend backend,
                  const std::vector<std::string>& scenarios)
      : tracer_(tracer), backend_(backend) {
    std::vector<Cell> lattice;
    for (int n : {3, 5}) {
      for (int r = 1; r <= n; ++r) {
        for (int w = 1; w <= n; ++w) {
          for (const std::string& scenario : scenarios) {
            lattice.push_back({scenario, {n, r, w}});
          }
        }
      }
    }
    const size_t size = lattice.size();
    size_t stride = static_cast<size_t>(0.618 * static_cast<double>(size));
    while (std::gcd(stride, size) != 1) ++stride;
    for (size_t i = 0; i < size; ++i) {
      cells_.push_back(lattice[(i * stride) % size]);
    }
  }

  void Request(int64_t index, uint64_t seed) override {
    position_ = static_cast<size_t>(index) % cells_.size();
    const Cell& cell = cells_[position_];
    failure_.clear();
    {
      ScopedSpan span(tracer_, "core", "core::ValidateQuorumConfig");
      const Status valid = ValidateQuorumConfig(cell.quorum);
      if (!valid.ok()) {
        failure_ = valid.message();
        return;
      }
    }
    StatusOr<ReplicaLatencyModelPtr> model = [&] {
      ScopedSpan span(tracer_, "pbs", "pbs::ScenarioModel");
      return ScenarioModel(cell.scenario, cell.quorum.n);
    }();
    if (!model.ok()) {
      failure_ = model.status().message();
      return;
    }
    PredictorOptions options;
    options.trials = kPredictTrials;
    options.seed = seed;
    options.exec = Threads(PredictThreads());
    options.backend = backend_;
    StatusOr<PbsPredictor> created = [&] {
      ScopedSpan span(tracer_, "core", kCreateSpan);
      return PbsPredictor::Create(cell.quorum, model.value(), options);
    }();
    if (!created.ok()) {
      failure_ = created.status().message();
      return;
    }
    const PbsPredictor& p = created.value();
    {
      // The six answers `pbs predict` prints.
      ScopedSpan span(tracer_, "core", kQuerySpan);
      answers_ = {p.ProbConsistent(0.0),         p.ProbConsistent(10.0),
                  p.TimeForConsistency(0.999),   p.KFreshness(2),
                  p.ReadLatencyPercentile(99.9), p.WriteLatencyPercentile(99.9)};
    }
    predictor_ = std::make_unique<PbsPredictor>(std::move(created.value()));
  }

  RequestCheck CheckLast(bool) override {
    // Taking the request's outputs here frees them after the check, outside
    // the next request's timing.
    const std::unique_ptr<PbsPredictor> predictor = std::move(predictor_);
    RequestCheck check;
    const Cell& cell = cells_[position_];
    check.counts.requests = 1;
    check.counts.ops = mc() ? kPredictTrials : 6;
    // Four leg draws (w, a, r, s) per replica per trial.
    check.counts.draws = mc() ? int64_t{kPredictTrials} * 4 * cell.quorum.n : 0;
    check.failure = failure_;
    if (!check.failure.empty()) return check;
    const auto& [p0, p10, t999, k2, read999, write999] = answers_;
    for (double answer : answers_) {
      if (!std::isfinite(answer)) check.failure = "non-finite answer";
    }
    if (p0 < 0.0 || p0 > 1.0 || p10 < 0.0 || p10 > 1.0 || k2 < 0.0 ||
        k2 > 1.0) {
      check.failure = "probability outside [0, 1]";
    } else if (p10 < p0) {
      check.failure = "P(consistent, t=10) < P(consistent, t=0)";
    } else if (cell.quorum.IsStrict() && p0 != 1.0) {
      check.failure = "strict quorum with P(consistent, t=0) != 1";
    } else if (!(read999 > 0.0) || !(write999 > 0.0) || t999 < 0.0) {
      check.failure = "non-positive latency";
    }
    // predict_analytic: every tenth cell is checked against Monte Carlo
    // after the timed phase; record the analytic answers at the gate points
    // on the cell's first visit.
    if (!mc() && position_ % 10 == 0 &&
        std::none_of(pending_.begin(), pending_.end(),
                     [&](const Pending& p) { return p.position == position_; })) {
      Pending pending{position_, {}, {}, {}};
      for (double pct : kGatePcts) {
        pending.read.push_back(predictor->ReadLatencyPercentile(pct));
        pending.write.push_back(predictor->WriteLatencyPercentile(pct));
      }
      for (double t : kGateOffsets) {
        pending.consistent.push_back(predictor->ProbConsistent(t));
      }
      pending_.push_back(std::move(pending));
    }
    return check;
  }

  std::vector<std::string> Finish(std::vector<Metric>* metrics) override {
    std::vector<std::string> failures;
    if (mc()) return failures;
    // The gates bench/analytic_vs_mc enforces: latency quantiles within
    // 2% + 0.15 ms plus the Monte Carlo estimate's own 3-sigma quantile CI,
    // and P(consistent | t) within 0.05.
    double worst_tvis = 0.0;
    for (const Pending& pending : pending_) {
      const Cell& cell = cells_[pending.position];
      const ReplicaLatencyModelPtr model = ModelFor(cell);
      const PbsExecutionOptions exec = Threads(PredictThreads());
      const OperationLatencies mc_lat =
          EstimateLatencies(cell.quorum, model, kPredictTrials, 801, exec);
      const TVisibilityCurve mc_tvis =
          EstimateTVisibility(cell.quorum, model, kPredictTrials, 802, exec);
      const std::string where =
          cell.scenario + " " + cell.quorum.ToString() + ": ";
      for (size_t i = 0; i < std::size(kGatePcts); ++i) {
        const double pct = kGatePcts[i];
        const double mr = mc_lat.reads.Percentile(pct);
        const double mw = mc_lat.writes.Percentile(pct);
        if (std::abs(pending.read[i] - mr) >
            0.02 * mr + 0.15 + QuantileCiHalfWidth(mc_lat.reads, pct)) {
          failures.push_back(where + "analytic read p" + FormatDouble(pct, 1) +
                             " disagrees with Monte Carlo");
        }
        if (std::abs(pending.write[i] - mw) >
            0.02 * mw + 0.15 + QuantileCiHalfWidth(mc_lat.writes, pct)) {
          failures.push_back(where + "analytic write p" +
                             FormatDouble(pct, 1) +
                             " disagrees with Monte Carlo");
        }
      }
      for (size_t i = 0; i < std::size(kGateOffsets); ++i) {
        const double err = std::abs(pending.consistent[i] -
                                    mc_tvis.ProbConsistent(kGateOffsets[i]));
        worst_tvis = std::max(worst_tvis, err);
        if (err > 0.05) {
          failures.push_back(where + "analytic P(consistent, t=" +
                             FormatDouble(kGateOffsets[i], 0) +
                             ") off by " + FormatDouble(err, 4));
        }
      }
    }
    metrics->push_back({"analytic_vs_mc.cells_checked",
                        static_cast<double>(pending_.size()), "count"});
    metrics->push_back({"analytic_vs_mc.tvis_max_abs_err", worst_tvis, "prob"});
    return failures;
  }

  void Replays(const Counts& counted, const std::vector<uint64_t>& seeds,
               std::vector<Metric>* metrics) override {
    const size_t cells = std::min(seeds.size(), cells_.size());
    CommonReplays({cells_.begin(), cells_.begin() + static_cast<long>(cells)},
                  counted, /*create=*/mc(), metrics);
  }

 private:
  static constexpr double kGatePcts[] = {50.0, 99.0, 99.9};
  static constexpr double kGateOffsets[] = {0.0, 1.0, 5.0, 20.0, 60.0};

  struct Pending {
    size_t position;
    std::vector<double> read, write, consistent;
  };

  bool mc() const { return backend_ == PredictorBackend::kMonteCarlo; }

  // 3-sigma order-statistic CI half-width of a Monte Carlo quantile.
  static double QuantileCiHalfWidth(const LatencyProfile& profile,
                                    double pct) {
    const std::vector<double>& sorted = profile.sorted();
    const double n = static_cast<double>(sorted.size());
    const double p = pct / 100.0;
    const double sd = std::sqrt(n * p * (1.0 - p));
    const auto rank = [&](double x) {
      return static_cast<size_t>(std::clamp(x, 0.0, n - 1.0));
    };
    return 0.5 * (sorted[rank(std::ceil(n * p + 3.0 * sd))] -
                  sorted[rank(std::floor(n * p - 3.0 * sd))]);
  }

  Tracer* tracer_;
  PredictorBackend backend_;
  std::vector<Cell> cells_;
  size_t position_ = 0;
  std::string failure_;
  std::array<double, 6> answers_{};
  std::unique_ptr<PbsPredictor> predictor_;
  std::vector<Pending> pending_;
};

// -- simulate / control --------------------------------------------------------

/// One `pbs simulate` run per request. `simulate` is the CLI default
/// (lnkd-disk, N3 R1 W1, 5000 writes at 250 ms, 8 probe offsets), fault-free
/// with telemetry and tracing off. `control` adds a 10x slow replica,
/// hedging, retries, an SLA with the closed-loop controller and the drift
/// monitor over 400 writes, and renders the metrics JSONL and the dashboard
/// in memory, as `--metrics-out --dashboard-out` would.
class SimulateWorkload : public Workload {
 public:
  SimulateWorkload(Tracer* tracer, bool control)
      : tracer_(tracer), control_(control) {}

  /// The config `pbs simulate` builds from its flags. `controller` and
  /// `telemetry` switch those features off for the paired runs.
  Config MakeConfig(uint64_t seed, bool controller = true,
                    bool telemetry = true) const {
    Config config;
    config.seed = seed;
    config.scenario = "lnkd-disk";
    config.quorum.n = 3;
    config.quorum.r = 1;
    config.quorum.w = 1;
    config.workload.writes = 5000;
    config.workload.write_spacing_ms = 250.0;
    if (!control_) return config;
    config.workload.writes = 400;
    config.faults.specs = "slow:node=2,factor=10";
    config.hedge.enabled = true;
    config.retry.max_attempts = 2;
    config.retry.deadline_ms = 3000.0;
    config.WithSla(SlaTarget::Parse("p=0.99,t=10,p99<=15").value());
    config.controller.enabled = controller;
    if (telemetry) config.WithTelemetry(500.0).WithMonitor();
    return config;
  }

  void Request(int64_t, uint64_t seed) override {
    RunOnce(MakeConfig(seed), /*exports=*/control_);
  }

  RequestCheck CheckLast(bool counted) override {
    const kvs::StalenessExperimentResult r =
        std::exchange(result_, kvs::StalenessExperimentResult());
    RequestCheck check;
    check.failure = failure_;
    if (!check.failure.empty()) return check;
    check.counts = ClusterCounts(r.registry);
    check.counts.ops = static_cast<int64_t>(r.read_latencies.size() +
                                            r.write_latencies.size());
    check.counts.windows = r.timeseries.windows_cut();
    const kvs::ClusterMetrics& m = r.final_metrics;
    const int writes = control_ ? 400 : 5000;
    // Fault-free runs fail no operation; under control's slow replica an
    // operation may exhaust its deadline, which the SLA check accounts for.
    if (!control_ && (m.reads_failed != 0 || m.writes_failed != 0)) {
      check.failure = "failed client operations";
    }
    for (const auto& point : r.t_visibility) {
      if (point.trials != writes) check.failure = "missing probe reads";
    }
    if (control_) {
      const SlaTarget sla = MakeConfig(0).sla;
      const int64_t judged = m.reads_fresh_measured + m.reads_stale_measured;
      const double fresh = judged == 0 ? 0.0
                                       : static_cast<double>(
                                             m.reads_fresh_measured) /
                                             static_cast<double>(judged);
      const double p99 = r.read_latencies.empty()
                             ? 0.0
                             : Quantiles(r.read_latencies, {0.99})[0];
      if (fresh < sla.fresh_probability) {
        check.failure = "controller missed the SLA freshness clause";
      } else if (p99 > sla.read_p99_ms) {
        check.failure = "controller missed the SLA read p99 clause";
      } else if (metrics_jsonl_.empty() || dashboard_html_.empty() ||
                 r.telemetry_jsonl.empty()) {
        check.failure = "empty telemetry artifact";
      }
    }
    if (counted && !control_) {
      for (size_t i = 0; i < r.t_visibility.size(); ++i) {
        if (pooled_.size() <= i) pooled_.push_back(r.t_visibility[i]);
        else {
          pooled_[i].trials += r.t_visibility[i].trials;
          pooled_[i].consistent += r.t_visibility[i].consistent;
        }
      }
    }
    return check;
  }

  std::vector<std::string> Finish(std::vector<Metric>* metrics) override {
    std::vector<std::string> failures;
    if (control_) return failures;
    // Section 5.2: the pooled measured t-visibility against a 1M-trial WARS
    // prediction for the same legs and quorum.
    const Config config = MakeConfig(0);
    const TVisibilityCurve predicted = EstimateTVisibility(
        config.quorum.ToQuorumConfig(), config.ResolveModel().value(), 1000000,
        /*seed=*/802, Threads(PredictThreads()));
    double worst = 0.0;
    for (const auto& point : pooled_) {
      worst = std::max(worst, std::abs(point.ProbConsistent() -
                                       predicted.ProbConsistent(point.t)));
    }
    metrics->push_back({"tvis_max_abs_err", worst, "prob"});
    if (pooled_.empty() || worst > 0.02) {
      failures.push_back("measured t-visibility disagrees with WARS by " +
                         FormatDouble(worst, 4) + " (limit 0.02)");
    }
    return failures;
  }

  void Replays(const Counts& counted, const std::vector<uint64_t>& seeds,
               std::vector<Metric>* metrics) override {
    const Config config = MakeConfig(0);
    CommonReplays({{config.scenario, config.quorum.ToQuorumConfig()}}, counted,
                  /*create=*/false, metrics);
    if (!control_) return;
    // Same-seed runs of the cluster alone: as requested, with the
    // controller off, and with telemetry and monitor off, back to back so
    // host drift stays out of each comparison.
    std::vector<double> epoch_ms, controller_share, telemetry_ratio;
    for (uint64_t seed : seeds) {
      const double on = RunOnce(MakeConfig(seed), /*exports=*/false);
      const int64_t epochs = result_.final_metrics.controller_epochs;
      const double off = RunOnce(
          MakeConfig(seed, /*controller=*/false, /*telemetry=*/true), false);
      const double quiet = RunOnce(
          MakeConfig(seed, /*controller=*/true, /*telemetry=*/false), false);
      if (epochs > 0) epoch_ms.push_back((on - off) / static_cast<double>(epochs));
      controller_share.push_back(100.0 * (on - off) / on);
      telemetry_ratio.push_back(on / quiet);
    }
    metrics->push_back({"kvs.controller.epoch_ms", Median(epoch_ms), "ms"});
    metrics->push_back({"kvs.controller.share", Median(controller_share), "%"});
    metrics->push_back(
        {"obs.telemetry_overhead", Median(telemetry_ratio) - 1.0, "ratio"});
  }

 private:
  /// Lowers and runs `config` the way `pbs simulate` does; returns the
  /// milliseconds spent in the cluster run.
  double RunOnce(const Config& config, bool exports) {
    failure_.clear();
    metrics_jsonl_.clear();
    dashboard_html_.clear();
    StatusOr<kvs::StalenessExperimentOptions> options =
        Status::InvalidArgument("not lowered");
    StatusOr<kvs::FaultSchedule> faults = Status::InvalidArgument("not lowered");
    {
      ScopedSpan span(tracer_, "pbs", "pbs::Config lowering");
      const Status valid = config.Validate();
      if (!valid.ok()) {
        failure_ = valid.message();
        return 0.0;
      }
      options = config.BuildExperiment();
      faults = config.BuildFaultSchedule();
    }
    if (!options.ok() || !faults.ok()) {
      failure_ = "config lowering failed";
      return 0.0;
    }
    const auto start = Clock::now();
    if (config.faults.any()) {
      ScopedSpan span(tracer_, "kvs", "kvs::RunStalenessExperimentWithFaults");
      result_ = kvs::RunStalenessExperimentWithFaults(options.value(),
                                                      faults.value());
    } else {
      ScopedSpan span(tracer_, "kvs", "kvs::RunStalenessExperiment");
      result_ = kvs::RunStalenessExperiment(options.value());
    }
    const double run_ms = MsSince(start);
    if (exports) {
      {
        ScopedSpan span(tracer_, "obs", "obs::MetricsJsonl");
        metrics_jsonl_ =
            obs::MetricsJsonl(result_.registry, result_.metrics_header);
      }
      ScopedSpan span(tracer_, "obs", "obs::RenderDashboardHtml");
      dashboard_html_ = obs::RenderDashboardHtml(
          result_.telemetry_jsonl,
          "pbs simulate — " + options.value().cluster.quorum.ToString());
    }
    return run_ms;
  }

  Tracer* tracer_;
  bool control_;
  std::string failure_;
  kvs::StalenessExperimentResult result_;
  std::string metrics_jsonl_;
  std::string dashboard_html_;
  std::vector<kvs::ConsistencyByOffset::Point> pooled_;
};

// -- rebalance -------------------------------------------------------------------

/// One elastic-rebalance run per request: 64 nodes x 32 vnodes, 2048 keys,
/// 8k writes at 1 ms spacing, 2 joins and 2 removals at 40% of the writes.
class RebalanceWorkload : public Workload {
 public:
  explicit RebalanceWorkload(Tracer* tracer) : tracer_(tracer) {}

  void Request(int64_t, uint64_t seed) override {
    failure_.clear();
    kvs::RebalanceRunOptions options;
    {
      ScopedSpan span(tracer_, "pbs", "pbs::Config lowering");
      Config config;
      config.seed = seed;
      config.WithScenario("lnkd-ssd").WithQuorum(3, 2, 2).WithCluster(64, 32);
      config.request_timeout_ms = 200.0;
      StatusOr<kvs::KvsConfig> cluster = config.BuildKvsConfig();
      if (!cluster.ok()) {
        failure_ = cluster.status().message();
        return;
      }
      options.cluster = std::move(cluster.value());
      options.keys = kKeys;
      options.writes = 8000;
      options.write_spacing_ms = 1.0;
      options.read_offset_ms = 10.0;
      options.join_nodes = 2;
      options.remove_nodes = 2;
      options.churn_at_fraction = 0.4;
      options.seed = seed;
    }
    {
      ScopedSpan span(tracer_, "kvs", "kvs::RebalanceRunOptions::Validate");
      const Status valid = options.Validate();
      if (!valid.ok()) {
        failure_ = valid.message();
        return;
      }
    }
    ScopedSpan span(tracer_, "kvs", "kvs::RunRebalanceExperiment");
    summary_ = kvs::RunRebalanceExperiment(options, &registry_);
  }

  RequestCheck CheckLast(bool) override {
    // The run adds into registry_, so the next request needs it empty.
    const obs::Registry registry = std::exchange(registry_, {});
    RequestCheck check;
    check.failure = failure_;
    if (!check.failure.empty()) return check;
    const kvs::RebalanceRunSummary& s = summary_;
    check.counts = ClusterCounts(registry);
    // Acked writes, answered probe reads and the read-back of every key.
    check.counts.ops = s.writes_acked + s.before.reads + s.during.reads +
                       s.after.reads + kKeys;
    check.counts.moved_fraction = s.moved_fraction;
    check.counts.min_fraction = s.theoretical_min_fraction;
    if (s.lost_acked_writes != 0) {
      check.failure = "lost acknowledged writes";
    } else if (!s.placement_matches_fresh_ring) {
      check.failure = "placement differs from a fresh ring";
    } else if (s.moved_fraction > 1.5 * s.theoretical_min_fraction) {
      check.failure = "moved more than 1.5x the minimum key fraction";
    } else if (s.rebalances_completed != s.rebalances_started) {
      check.failure = "rebalance did not drain";
    }
    return check;
  }

  std::vector<std::string> Finish(std::vector<Metric>*) override { return {}; }

  void Replays(const Counts& counted, const std::vector<uint64_t>&,
               std::vector<Metric>* metrics) override {
    CommonReplays({{"lnkd-ssd", {3, 2, 2}}}, counted, /*create=*/false,
                  metrics);
  }

 private:
  static constexpr int kKeys = 2048;

  Tracer* tracer_;
  std::string failure_;
  obs::Registry registry_;
  kvs::RebalanceRunSummary summary_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "predict_mc", "predict_analytic", "simulate", "control", "rebalance"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Tracer* tracer,
                                       std::string* error) {
  if (name == "predict_mc") {
    return std::make_unique<PredictWorkload>(
        tracer, PredictorBackend::kMonteCarlo,
        std::vector<std::string>{"lnkd-ssd", "lnkd-disk", "ymmr", "wan"});
  }
  if (name == "predict_analytic") {
    return std::make_unique<PredictWorkload>(
        tracer, PredictorBackend::kAnalytic,
        std::vector<std::string>{"lnkd-ssd", "lnkd-disk", "ymmr"});
  }
  if (name == "simulate") return std::make_unique<SimulateWorkload>(tracer, false);
  if (name == "control") return std::make_unique<SimulateWorkload>(tracer, true);
  if (name == "rebalance") return std::make_unique<RebalanceWorkload>(tracer);
  *error = "unknown workload '" + name + "'";
  return nullptr;
}

}  // namespace e2e
}  // namespace pbs
