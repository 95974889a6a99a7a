#include "core/predictor.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/analytic.h"

namespace pbs {

namespace {

/// The historical engine: one WARS Monte Carlo run at construction, every
/// query an order statistic over its columns. Byte-for-byte the same trial
/// set — and hence the same answers — as the pre-backend PbsPredictor.
class MonteCarloEngine final : public PredictionEngine {
 public:
  MonteCarloEngine(const QuorumConfig& config,
                   const ReplicaLatencyModelPtr& model,
                   const PredictorOptions& options)
      : n_(config.n) {
    trials_ = RunWarsTrials(config, model, options.trials, options.seed,
                            options.collect_propagation, ReadFanout::kAllN,
                            options.exec);
    // The curve/profile constructors sort the columns they take; afterwards
    // the trial set keeps only the propagation column, for EmpiricalPwAt.
    t_visibility_ = std::make_unique<TVisibilityCurve>(
        std::move(trials_.staleness_thresholds));
    trials_.staleness_thresholds.clear();
    latencies_ = std::make_unique<OperationLatencies>(OperationLatencies{
        LatencyProfile(std::move(trials_.read_latencies)),
        LatencyProfile(std::move(trials_.write_latencies))});
    trials_.read_latencies.clear();
    trials_.write_latencies.clear();
  }

  PredictorBackend kind() const override {
    return PredictorBackend::kMonteCarlo;
  }
  std::string Describe() const override {
    std::ostringstream out;
    out << "mc(" << t_visibility_->num_trials() << " trials)";
    return out.str();
  }

  double ProbConsistent(double t) const override {
    return t_visibility_->ProbConsistent(t);
  }
  double TimeForConsistency(double p) const override {
    return t_visibility_->TimeForConsistency(p);
  }
  double ReadLatencyPercentile(double pct) const override {
    return latencies_->reads.Percentile(pct);
  }
  double WriteLatencyPercentile(double pct) const override {
    return latencies_->writes.Percentile(pct);
  }
  std::vector<double> WritePropagationCdfAt(double t) const override {
    assert(!trials_.propagation.empty() &&
           "PredictorOptions::collect_propagation must be set");
    return EmpiricalPwAt(trials_, n_, t);
  }

 private:
  int n_;
  WarsTrialSet trials_;
  std::unique_ptr<TVisibilityCurve> t_visibility_;
  std::unique_ptr<OperationLatencies> latencies_;
};

/// The grid-solver engine: wraps AnalyticWars (core/analytic.h), whose
/// scenario grids are built once here and answer every query in
/// microseconds. Latencies are exact to grid resolution; t-visibility and
/// the propagation CDF carry AnalyticWars's documented independence
/// approximations.
class AnalyticEngine final : public PredictionEngine {
 public:
  AnalyticEngine(const QuorumConfig& config, AnalyticScenarioPtr scenario)
      : wars_(config, std::move(scenario)) {}

  PredictorBackend kind() const override { return PredictorBackend::kAnalytic; }
  std::string Describe() const override {
    std::ostringstream out;
    out << "analytic(" << wars_.scenario()->bins() << " bins, max "
        << wars_.scenario()->max_ms() << " ms)";
    return out.str();
  }

  double ProbConsistent(double t) const override {
    return wars_.ApproxProbConsistent(t);
  }
  double TimeForConsistency(double p) const override {
    return wars_.ApproxTimeForConsistency(p);
  }
  double ReadLatencyPercentile(double pct) const override {
    return wars_.ReadLatencyQuantile(pct / 100.0);
  }
  double WriteLatencyPercentile(double pct) const override {
    return wars_.WriteLatencyQuantile(pct / 100.0);
  }
  std::vector<double> WritePropagationCdfAt(double t) const override {
    return wars_.ApproxPwAt(t);
  }

 private:
  AnalyticWars wars_;
};

Status ValidateEngineInputs(const QuorumConfig& config,
                            const ReplicaLatencyModelPtr& model,
                            const PredictorOptions& options) {
  if (!config.IsValid()) {
    std::ostringstream out;
    out << "invalid quorum config: n=" << config.n << " r=" << config.r
        << " w=" << config.w;
    return Status::InvalidArgument(out.str());
  }
  if (model == nullptr) {
    return Status::InvalidArgument("latency model must not be null");
  }
  if (model->num_replicas() != config.n) {
    std::ostringstream out;
    out << "latency model has " << model->num_replicas()
        << " replicas but config.n = " << config.n;
    return Status::InvalidArgument(out.str());
  }
  if (options.trials < 1) {
    return Status::InvalidArgument("options.trials must be >= 1, got " +
                                   std::to_string(options.trials));
  }
  return options.grid.Validate();
}

/// kAuto's guard: compare the analytic engine against a small MC run on the
/// quantities the predictor serves. Returns an empty string on agreement,
/// otherwise the human-readable reason for falling back.
std::string SpotCheckAnalytic(const QuorumConfig& config,
                              const ReplicaLatencyModelPtr& model,
                              const PredictorOptions& options,
                              const AnalyticEngine& analytic) {
  PredictorOptions probe = options;
  probe.trials = kAutoSpotCheckTrials;
  probe.collect_propagation = false;
  MonteCarloEngine mc(config, model, probe);

  const auto latency_ok = [](double a, double m) {
    return std::abs(a - m) <= kAutoLatencyRelTol * m + kAutoLatencyAbsTolMs;
  };
  std::ostringstream why;
  for (const double pct : {50.0, 99.0}) {
    const double ar = analytic.ReadLatencyPercentile(pct);
    const double mr = mc.ReadLatencyPercentile(pct);
    if (!latency_ok(ar, mr)) {
      why << "read p" << pct << " " << ar << " vs mc " << mr << " ms";
      return why.str();
    }
    const double aw = analytic.WriteLatencyPercentile(pct);
    const double mw = mc.WriteLatencyPercentile(pct);
    if (!latency_ok(aw, mw)) {
      why << "write p" << pct << " " << aw << " vs mc " << mw << " ms";
      return why.str();
    }
  }
  for (const double t : {0.0, 10.0}) {
    const double ap = analytic.ProbConsistent(t);
    const double mp = mc.ProbConsistent(t);
    if (std::abs(ap - mp) > kAutoConsistencyTol) {
      why << "P(consistent|t=" << t << ") " << ap << " vs mc " << mp;
      return why.str();
    }
  }
  return std::string();
}

}  // namespace

StatusOr<AnalyticScenarioPtr> ResolveAnalyticScenario(
    const ReplicaLatencyModelPtr& model, const PredictorOptions& options,
    const QuorumConfig& probe, std::string* note) {
  if (note != nullptr) note->clear();
  const Status status = ValidateEngineInputs(probe, model, options);
  if (!status.ok()) return status;
  if (options.backend == PredictorBackend::kMonteCarlo) {
    return AnalyticScenarioPtr();
  }
  const WarsDistributions* legs = model->IidLegs();
  if (legs == nullptr) {
    if (options.backend == PredictorBackend::kAnalytic) {
      return Status::InvalidArgument(
          "backend=analytic requires an IID latency model (" +
          model->Describe() +
          " is not); use backend=auto to fall back to Monte Carlo");
    }
    if (note != nullptr) {
      *note = "auto: " + model->Describe() +
              " is not IID across replicas; using Monte Carlo";
    }
    return AnalyticScenarioPtr();
  }
  auto scenario = MakeAnalyticScenario(*legs, options.grid);
  if (!scenario.ok() || options.backend != PredictorBackend::kAuto) {
    return scenario;
  }
  const std::string mismatch = SpotCheckAnalytic(
      probe, model, options, AnalyticEngine(probe, scenario.value()));
  if (mismatch.empty()) return scenario;
  if (note != nullptr) {
    *note = "auto: analytic failed the MC spot-check (" + mismatch +
            "); using Monte Carlo";
  }
  return AnalyticScenarioPtr();
}

std::unique_ptr<PredictionEngine> BuildPredictionEngine(
    const QuorumConfig& config, const ReplicaLatencyModelPtr& model,
    const PredictorOptions& options, AnalyticScenarioPtr scenario) {
  if (scenario != nullptr) {
    return std::make_unique<AnalyticEngine>(config, std::move(scenario));
  }
  return std::make_unique<MonteCarloEngine>(config, model, options);
}

StatusOr<std::unique_ptr<PredictionEngine>> MakePredictionEngine(
    const QuorumConfig& config, const ReplicaLatencyModelPtr& model,
    const PredictorOptions& options, std::string* note) {
  auto scenario = ResolveAnalyticScenario(model, options, config, note);
  if (!scenario.ok()) return scenario.status();
  return BuildPredictionEngine(config, model, options,
                               std::move(scenario.value()));
}

StatusOr<PbsPredictor> PbsPredictor::Create(const QuorumConfig& config,
                                            ReplicaLatencyModelPtr model,
                                            const PredictorOptions& options) {
  PbsPredictor predictor;
  predictor.config_ = config;
  predictor.model_ = std::move(model);
  auto engine = MakePredictionEngine(config, predictor.model_, options,
                                     &predictor.backend_note_);
  if (!engine.ok()) return engine.status();
  predictor.engine_ = std::move(engine.value());
  return StatusOr<PbsPredictor>(std::move(predictor));
}

double PbsPredictor::KTStalenessUpperBound(int k, double t) const {
  const auto pw = engine_->WritePropagationCdfAt(t);
  return KTStalenessBound(config_, pw, k);
}

}  // namespace pbs
