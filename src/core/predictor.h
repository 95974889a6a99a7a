#ifndef PBS_CORE_PREDICTOR_H_
#define PBS_CORE_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/closed_form.h"
#include "core/latency.h"
#include "core/quorum_config.h"
#include "core/tvisibility.h"
#include "core/wars.h"
#include "util/status.h"

namespace pbs {

/// Options controlling a PbsPredictor's engine.
struct PredictorOptions {
  /// Monte Carlo trial budget (kMonteCarlo, and kAuto's fallback).
  int trials = 100000;
  uint64_t seed = 42;
  /// Collect per-trial write-propagation times (needed for the Equation 4/5
  /// upper bounds via empirical Pw; slightly slower). Monte Carlo only —
  /// the analytic engine derives its propagation CDF from the grids.
  bool collect_propagation = true;
  /// Thread count and chunking for the Monte Carlo run; results do not
  /// depend on the thread count.
  PbsExecutionOptions exec;

  /// Which engine answers the distributional queries (DESIGN.md §12).
  PredictorBackend backend = PredictorBackend::kMonteCarlo;
  /// Grid shape for the analytic / auto backends.
  AnalyticGridOptions grid;
};

/// The distributional query surface of PbsPredictor, extracted so Monte
/// Carlo and analytic engines are interchangeable behind it. Closed-form
/// queries (k-staleness, monotonic reads) do not appear here: they lower
/// through core/closed_form.h identically for every backend.
class PredictionEngine {
 public:
  virtual ~PredictionEngine() = default;

  /// The engine actually answering — kAuto resolves to one of the two
  /// concrete kinds at construction, never kAuto itself.
  virtual PredictorBackend kind() const = 0;
  virtual std::string Describe() const = 0;

  // t-visibility (Definition 3).
  virtual double ProbConsistent(double t) const = 0;
  virtual double TimeForConsistency(double p) const = 0;

  // Operation latency marginals; pct in [0, 100].
  virtual double ReadLatencyPercentile(double pct) const = 0;
  virtual double WriteLatencyPercentile(double pct) const = 0;

  /// Write-propagation CDF over the replica count at time t after commit —
  /// the Equation 4/5 input (see core/closed_form.h): entry c is
  /// P(at most c replicas hold the version), size N+1. Empirical under
  /// Monte Carlo (requires collect_propagation); the documented binomial
  /// approximation under the analytic engine (AnalyticWars::ApproxPwAt).
  virtual std::vector<double> WritePropagationCdfAt(double t) const = 0;
};

class AnalyticScenario;  // core/analytic.h
using AnalyticScenarioPtr = std::shared_ptr<const AnalyticScenario>;

/// The prediction layer's one backend decision (DESIGN.md §12.3). Validates
/// the inputs (quorum shape of `probe`, model, trial budget, grid), then
/// returns the scenario grid the analytic engine answers from, or null when
/// Monte Carlo answers. kMonteCarlo resolves to null. kAnalytic demands an
/// IID model (ReplicaLatencyModel::IidLegs) and fails otherwise. kAuto
/// resolves to null for non-IID models, and for IID models keeps the
/// scenario only when the analytic engine for `probe` passes the
/// spot-check against a small MC run seeded with options.seed (the kAuto*
/// constants in core/backend.h). When `note` is non-null it receives a
/// human-readable reason whenever kAuto resolves away from analytic, and is
/// cleared otherwise. One resolution serves every configuration of the
/// probe's N.
StatusOr<AnalyticScenarioPtr> ResolveAnalyticScenario(
    const ReplicaLatencyModelPtr& model, const PredictorOptions& options,
    const QuorumConfig& probe, std::string* note = nullptr);

/// Builds the engine for `config` on a resolved scenario: the analytic
/// engine when `scenario` is non-null, else a Monte Carlo run of
/// `options.trials`. The inputs must have passed ResolveAnalyticScenario.
std::unique_ptr<PredictionEngine> BuildPredictionEngine(
    const QuorumConfig& config, const ReplicaLatencyModelPtr& model,
    const PredictorOptions& options, AnalyticScenarioPtr scenario);

/// ResolveAnalyticScenario with `config` as the probe, then
/// BuildPredictionEngine.
StatusOr<std::unique_ptr<PredictionEngine>> MakePredictionEngine(
    const QuorumConfig& config, const ReplicaLatencyModelPtr& model,
    const PredictorOptions& options, std::string* note = nullptr);

/// The library's front door: one object answering every PBS question about a
/// (quorum configuration, latency model) pair.
///
///   auto model = pbs::MakeIidModel(pbs::LnkdDisk(), 3);
///   auto predictor = pbs::PbsPredictor::Create({.n = 3, .r = 1, .w = 1},
///                                              model, {});
///   predictor.value().ProbConsistent(10.0);  // P(fresh read 10ms after)
///   predictor.value().TimeForConsistency(0.999);
///   predictor.value().KFreshness(2);         // P(within 2 versions), Eq. 2
///   predictor.value().ReadLatencyPercentile(99.9);
///
/// The engine is built once, in Create: a WARS Monte Carlo run (default),
/// or the analytic grid solver (PredictorOptions::backend); every query is
/// then O(log trials), O(log bins) or O(1).
class PbsPredictor {
 public:
  /// Status-typed factory (the pbs::Config convention): rejects invalid
  /// quorum shapes, null or size-mismatched models, non-positive trial
  /// budgets, malformed grids, and kAnalytic against non-IID models.
  static StatusOr<PbsPredictor> Create(const QuorumConfig& config,
                                       ReplicaLatencyModelPtr model,
                                       const PredictorOptions& options = {});

  const QuorumConfig& config() const { return config_; }

  /// The engine kind answering distributional queries (kAuto resolved).
  PredictorBackend backend() const { return engine_->kind(); }
  /// Why kAuto resolved away from analytic (empty when unremarkable).
  const std::string& backend_note() const { return backend_note_; }
  const PredictionEngine& engine() const { return *engine_; }

  // --- t-visibility (Definition 3, via the engine) ---
  double ProbConsistent(double t) const { return engine_->ProbConsistent(t); }
  double ProbStale(double t) const { return 1.0 - ProbConsistent(t); }
  double TimeForConsistency(double p) const {
    return engine_->TimeForConsistency(p);
  }

  // --- k-staleness (Definitions 1-2, closed form for every backend) ---
  double KStaleness(int k) const {
    return KStalenessProbability(config_, k);
  }
  double KFreshness(int k) const {
    return KFreshnessProbability(config_, k);
  }
  double MonotonicReadsViolation(double gamma_gw, double gamma_cr) const {
    return MonotonicReadsViolationProbability(config_, gamma_gw, gamma_cr);
  }

  // --- <k, t>-staleness (Definition 4) ---
  /// Equation 5 upper bound evaluated with the engine's write-propagation
  /// CDF Pw(·, t). Under Monte Carlo requires collect_propagation.
  double KTStalenessUpperBound(int k, double t) const;

  // --- operation latency ---
  double ReadLatencyPercentile(double pct) const {
    return engine_->ReadLatencyPercentile(pct);
  }
  double WriteLatencyPercentile(double pct) const {
    return engine_->WriteLatencyPercentile(pct);
  }

 private:
  PbsPredictor() = default;
  friend class StatusOr<PbsPredictor>;

  QuorumConfig config_;
  ReplicaLatencyModelPtr model_;
  std::shared_ptr<const PredictionEngine> engine_;
  std::string backend_note_;
};

}  // namespace pbs

#endif  // PBS_CORE_PREDICTOR_H_
