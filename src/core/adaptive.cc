#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "core/analytic.h"
#include "core/latency.h"
#include "core/tvisibility.h"
#include "util/math.h"
#include "util/stats.h"

namespace pbs {

Status SlaTarget::Validate() const {
  if (!enabled()) return Status::Ok();
  if (!(fresh_probability > 0.0 && fresh_probability < 1.0)) {
    return Status::InvalidArgument(
        "sla: fresh_probability must be in (0, 1), got " +
        std::to_string(fresh_probability));
  }
  if (!(staleness_bound_ms >= 0.0)) {
    return Status::InvalidArgument("sla: staleness_bound_ms must be >= 0");
  }
  if (!(read_p99_ms > 0.0)) {
    return Status::InvalidArgument("sla: read_p99_ms must be > 0");
  }
  return Status::Ok();
}

StatusOr<SlaTarget> SlaTarget::Parse(const std::string& text) {
  SlaTarget sla;
  bool have_p = false, have_t = false, have_p99 = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string clause = text.substr(pos, comma - pos);
    pos = comma + 1;
    double* field = nullptr;
    std::string value;
    if (clause.rfind("p99<=", 0) == 0) {
      field = &sla.read_p99_ms;
      value = clause.substr(5);
      have_p99 = true;
    } else if (clause.rfind("p=", 0) == 0) {
      field = &sla.fresh_probability;
      value = clause.substr(2);
      have_p = true;
    } else if (clause.rfind("t=", 0) == 0) {
      field = &sla.staleness_bound_ms;
      value = clause.substr(2);
      have_t = true;
    } else {
      return Status::InvalidArgument("sla: unknown clause '" + clause +
                                     "' (want p=, t=, p99<=)");
    }
    char* end = nullptr;
    *field = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        !std::isfinite(*field)) {
      return Status::InvalidArgument("sla: bad number in clause '" + clause +
                                     "'");
    }
  }
  if (!have_p || !have_t || !have_p99) {
    return Status::InvalidArgument(
        "sla: need all of p=, t=, p99<= in '" + text + "'");
  }
  // A parsed target must be an *enabled* one; p <= 0 would otherwise slip
  // through Validate() as "SLA disabled".
  if (!sla.enabled()) {
    return Status::InvalidArgument(
        "sla: fresh_probability must be in (0, 1), got " +
        std::to_string(sla.fresh_probability));
  }
  Status status = sla.Validate();
  if (!status.ok()) return status;
  return sla;
}

double MixtureQuantileSorted(const std::vector<double>& lo_sorted,
                             double weight_lo,
                             const std::vector<double>& hi_sorted,
                             double weight_hi, double q) {
  const bool have_lo = weight_lo > 0.0 && !lo_sorted.empty();
  const bool have_hi = weight_hi > 0.0 && !hi_sorted.empty();
  if (!have_lo && !have_hi) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (!have_lo) return QuantileSorted(hi_sorted, q);
  if (!have_hi) return QuantileSorted(lo_sorted, q);
  // Merge-scan: advance through the union of both sorted arrays in value
  // order; after consuming i values of lo and j of hi the mixture CDF is
  // weight_lo * i/|lo| + weight_hi * j/|hi|. Return the first value at
  // which it reaches q.
  const double step_lo = weight_lo / static_cast<double>(lo_sorted.size());
  const double step_hi = weight_hi / static_cast<double>(hi_sorted.size());
  size_t i = 0, j = 0;
  double cdf = 0.0;
  double value = lo_sorted.back() > hi_sorted.back() ? lo_sorted.back()
                                                     : hi_sorted.back();
  while (i < lo_sorted.size() || j < hi_sorted.size()) {
    double next;
    if (j >= hi_sorted.size() ||
        (i < lo_sorted.size() && lo_sorted[i] <= hi_sorted[j])) {
      next = lo_sorted[i++];
      cdf += step_lo;
    } else {
      next = hi_sorted[j++];
      cdf += step_hi;
    }
    if (cdf >= q - 1e-12) {
      value = next;
      break;
    }
  }
  return value;
}

namespace {

// Seed of MixedQuorumPredictor's kAuto spot-check Monte Carlo run, apart
// from the per-Evaluate seeds so the guard never perturbs decision streams.
constexpr uint64_t kSpotCheckSeed = 0x5EED5EEDULL;

// Fraction of (unsorted) thresholds at or below `bound`.
double FractionAtMost(const std::vector<double>& values, double bound) {
  if (values.empty()) return 0.0;
  int64_t hits = 0;
  for (double v : values) {
    if (v <= bound) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(values.size());
}

}  // namespace

MixedQuorumEvaluation EvaluateMixedQuorum(const MixedQuorum& quorum,
                                          const SlaTarget& sla,
                                          const ReplicaLatencyModelPtr& model,
                                          int trials, uint64_t seed,
                                          ReadFanout read_fanout,
                                          const PbsExecutionOptions& exec) {
  assert(quorum.IsValid());
  assert(model != nullptr && model->num_replicas() == quorum.n);
  assert(trials > 0);
  const double mix_lo = quorum.r_lo == quorum.r_hi ? 0.0 : quorum.mix;
  const double mix_hi = 1.0 - mix_lo;

  MixedQuorumEvaluation eval;
  std::vector<double> lo_reads, hi_reads, lo_writes, hi_writes;
  double fresh = 0.0;
  if (mix_hi > 0.0 || mix_lo <= 0.0) {
    const QuorumConfig hi{quorum.n, quorum.r_hi, quorum.w};
    WarsTrialSet set = RunWarsTrials(hi, model, trials, seed,
                                     /*want_propagation=*/false, read_fanout,
                                     exec);
    fresh += mix_hi * FractionAtMost(set.staleness_thresholds,
                                     sla.staleness_bound_ms);
    hi_reads = std::move(set.read_latencies);
    hi_writes = std::move(set.write_latencies);
    std::sort(hi_reads.begin(), hi_reads.end());
    std::sort(hi_writes.begin(), hi_writes.end());
  }
  if (mix_lo > 0.0) {
    const QuorumConfig lo{quorum.n, quorum.r_lo, quorum.w};
    // The lo arm draws from a deterministically derived but distinct seed
    // so the two arms are independent samples.
    WarsTrialSet set = RunWarsTrials(lo, model, trials,
                                     seed ^ 0x5CA1AB1E5CA1AB1EULL,
                                     /*want_propagation=*/false, read_fanout,
                                     exec);
    fresh += mix_lo * FractionAtMost(set.staleness_thresholds,
                                     sla.staleness_bound_ms);
    lo_reads = std::move(set.read_latencies);
    lo_writes = std::move(set.write_latencies);
    std::sort(lo_reads.begin(), lo_reads.end());
    std::sort(lo_writes.begin(), lo_writes.end());
  }
  eval.fresh_probability = fresh;
  eval.read_p99_ms =
      MixtureQuantileSorted(lo_reads, mix_lo, hi_reads, mix_hi, 0.99);
  eval.write_p99_ms =
      MixtureQuantileSorted(lo_writes, mix_lo, hi_writes, mix_hi, 0.99);
  eval.feasible = eval.fresh_probability >= sla.fresh_probability &&
                  eval.read_p99_ms <= sla.read_p99_ms;
  return eval;
}

MixedQuorumEvaluation EvaluateMixedQuorumAnalytic(
    const MixedQuorum& quorum, const SlaTarget& sla,
    const AnalyticScenarioPtr& scenario, ReadFanout read_fanout) {
  assert(quorum.IsValid());
  assert(scenario != nullptr);
  // Same arm-weight convention as the Monte Carlo path above.
  const double mix_lo = quorum.r_lo == quorum.r_hi ? 0.0 : quorum.mix;
  const double mix_hi = 1.0 - mix_lo;

  MixedQuorumEvaluation eval;
  std::unique_ptr<AnalyticWars> lo, hi;
  double fresh = 0.0;
  if (mix_hi > 0.0 || mix_lo <= 0.0) {
    hi = std::make_unique<AnalyticWars>(
        QuorumConfig{quorum.n, quorum.r_hi, quorum.w}, scenario, read_fanout);
    fresh += mix_hi * hi->ApproxProbConsistent(sla.staleness_bound_ms);
  }
  if (mix_lo > 0.0) {
    lo = std::make_unique<AnalyticWars>(
        QuorumConfig{quorum.n, quorum.r_lo, quorum.w}, scenario, read_fanout);
    fresh += mix_lo * lo->ApproxProbConsistent(sla.staleness_bound_ms);
  }
  eval.fresh_probability = ClampProbability(fresh);
  if (lo != nullptr && hi != nullptr) {
    // Exact mixture of the two read order-statistic CDFs on the shared grid.
    eval.read_p99_ms = DiscretizedDistribution::Mixture(
                           lo->read_latency(), mix_lo, hi->read_latency(),
                           mix_hi)
                           .Quantile(0.99);
  } else {
    const AnalyticWars& arm = hi != nullptr ? *hi : *lo;
    eval.read_p99_ms = arm.ReadLatencyQuantile(0.99);
  }
  // Write latency is R-independent (the W-th order statistic of w + a), so
  // the arms agree; take whichever was built.
  eval.write_p99_ms = (hi != nullptr ? *hi : *lo).WriteLatencyQuantile(0.99);
  eval.feasible = eval.fresh_probability >= sla.fresh_probability &&
                  eval.read_p99_ms <= sla.read_p99_ms;
  return eval;
}

MixedQuorumPredictor::MixedQuorumPredictor(const SlaTarget& sla,
                                           ReplicaLatencyModelPtr model,
                                           const MixedQuorum& probe,
                                           const Options& options)
    : sla_(sla), model_(std::move(model)), options_(options) {
  assert(model_ != nullptr && model_->num_replicas() == probe.n);
  assert(probe.IsValid());
  assert(options_.trials > 0);
  if (options_.backend == PredictorBackend::kMonteCarlo) {
    resolved_ = PredictorBackend::kMonteCarlo;
    return;
  }
  const WarsDistributions* legs = model_->IidLegs();
  if (legs == nullptr) {
    note_ = PredictorBackendName(options_.backend) + std::string(": ") +
            model_->Describe() +
            " is not IID across replicas; using Monte Carlo";
    resolved_ = PredictorBackend::kMonteCarlo;
    return;
  }
  auto scenario = MakeAnalyticScenario(*legs, options_.grid);
  if (!scenario.ok()) {
    note_ = PredictorBackendName(options_.backend) + std::string(": ") +
            scenario.status().message() + "; using Monte Carlo";
    resolved_ = PredictorBackend::kMonteCarlo;
    return;
  }
  scenario_ = std::move(scenario.value());
  if (options_.backend == PredictorBackend::kAuto) {
    // Spot-check the probe quorum: the analytic evaluation must match a
    // small Monte Carlo run on the two quantities decisions hinge on.
    const MixedQuorumEvaluation analytic = EvaluateMixedQuorumAnalytic(
        probe, sla_, scenario_, options_.read_fanout);
    const MixedQuorumEvaluation mc = EvaluateMixedQuorum(
        probe, sla_, model_, kAutoSpotCheckTrials, kSpotCheckSeed,
        options_.read_fanout, options_.exec);
    std::ostringstream why;
    if (std::abs(analytic.fresh_probability - mc.fresh_probability) >
        kAutoConsistencyTol) {
      why << "fresh probability " << analytic.fresh_probability << " vs mc "
          << mc.fresh_probability;
    } else if (std::abs(analytic.read_p99_ms - mc.read_p99_ms) >
               kAutoLatencyRelTol * mc.read_p99_ms + kAutoLatencyAbsTolMs) {
      why << "read p99 " << analytic.read_p99_ms << " vs mc " << mc.read_p99_ms
          << " ms";
    }
    if (why.tellp() != 0) {
      note_ = "auto: analytic failed the MC spot-check (" + why.str() +
              "); using Monte Carlo";
      resolved_ = PredictorBackend::kMonteCarlo;
      scenario_.reset();
      return;
    }
  }
  resolved_ = PredictorBackend::kAnalytic;
}

MixedQuorumPredictor::~MixedQuorumPredictor() = default;

MixedQuorumEvaluation MixedQuorumPredictor::Evaluate(const MixedQuorum& quorum,
                                                     uint64_t seed) const {
  if (resolved_ == PredictorBackend::kAnalytic) {
    return EvaluateMixedQuorumAnalytic(quorum, sla_, scenario_,
                                       options_.read_fanout);
  }
  return EvaluateMixedQuorum(quorum, sla_, model_, options_.trials, seed,
                             options_.read_fanout, options_.exec);
}

AdaptiveConfigController::AdaptiveConfigController(
    QuorumConfig initial, const AdaptiveControllerOptions& options)
    : current_(initial), options_(options) {
  assert(initial.IsValid());
  assert(options.trials_per_eval > 0);
  assert(options.switch_improvement_factor > 0.0 &&
         options.switch_improvement_factor <= 1.0);
}

AdaptiveConfigController::Evaluation AdaptiveConfigController::Evaluate(
    const QuorumConfig& config, const ReplicaLatencyModelPtr& model,
    uint64_t seed, const AnalyticScenarioPtr& scenario) const {
  Evaluation eval;
  if (scenario != nullptr) {
    const AnalyticWars wars(config, scenario);
    eval.t_visibility_ms =
        wars.ApproxTimeForConsistency(options_.consistency_probability);
    const double p = options_.latency_percentile / 100.0;
    eval.objective_ms =
        options_.read_weight * wars.ReadLatencyQuantile(p) +
        options_.write_weight * wars.WriteLatencyQuantile(p);
    eval.feasible = eval.t_visibility_ms <= options_.max_t_visibility_ms;
    return eval;
  }
  WarsTrialSet set =
      RunWarsTrials(config, model, options_.trials_per_eval, seed,
                    /*want_propagation=*/false, ReadFanout::kAllN,
                    options_.exec);
  const TVisibilityCurve curve(std::move(set.staleness_thresholds));
  const LatencyProfile reads(std::move(set.read_latencies));
  const LatencyProfile writes(std::move(set.write_latencies));
  eval.t_visibility_ms =
      curve.TimeForConsistency(options_.consistency_probability);
  eval.objective_ms =
      options_.read_weight * reads.Percentile(options_.latency_percentile) +
      options_.write_weight * writes.Percentile(options_.latency_percentile);
  eval.feasible = eval.t_visibility_ms <= options_.max_t_visibility_ms;
  return eval;
}

QuorumConfig AdaptiveConfigController::Update(
    const ReplicaLatencyModelPtr& model) {
  assert(model != nullptr);
  assert(model->num_replicas() == current_.n);
  ++epoch_;

  // Resolve the evaluation engine for this epoch (the model may change
  // between epochs, so kAuto re-checks every time). A null scenario means
  // Monte Carlo; the default-kMonteCarlo path below is byte-for-byte the
  // historical one, so decision streams and their digests are unchanged.
  const uint64_t base_seed = options_.seed + epoch_ * 1000003ULL;
  AnalyticScenarioPtr scenario;
  if (options_.backend != PredictorBackend::kMonteCarlo) {
    const WarsDistributions* legs = model->IidLegs();
    assert((legs != nullptr ||
            options_.backend != PredictorBackend::kAnalytic) &&
           "backend=analytic requires an IID latency model");
    if (legs != nullptr) {
      auto made = MakeAnalyticScenario(*legs, options_.grid);
      assert(made.ok() && "invalid AdaptiveControllerOptions::grid");
      if (made.ok()) scenario = std::move(made.value());
    }
    if (scenario != nullptr &&
        options_.backend == PredictorBackend::kAuto) {
      // Spot-check on the incumbent: its Monte Carlo evaluation is needed
      // anyway when the check fails, and under agreement the analytic
      // engine re-evaluates it below for a consistent candidate ranking.
      const Evaluation mc = Evaluate(current_, model, base_seed, nullptr);
      const Evaluation an = Evaluate(current_, model, base_seed, scenario);
      const auto close = [](double a, double m) {
        return std::abs(a - m) <=
               kAutoLatencyRelTol * std::abs(m) + kAutoLatencyAbsTolMs;
      };
      if (!close(an.objective_ms, mc.objective_ms) ||
          !close(an.t_visibility_ms, mc.t_visibility_ms)) {
        scenario.reset();
      }
    }
  }
  last_backend_ = scenario != nullptr ? PredictorBackend::kAnalytic
                                      : PredictorBackend::kMonteCarlo;

  // Evaluate the incumbent and every challenger under the current model.
  Evaluation incumbent = Evaluate(current_, model, base_seed, scenario);

  QuorumConfig best = current_;
  Evaluation best_eval = incumbent;
  uint64_t salt = 1;
  for (int r = 1; r <= current_.n; ++r) {
    for (int w = 1; w <= current_.n; ++w) {
      const QuorumConfig candidate{current_.n, r, w};
      if (candidate == current_) continue;
      const Evaluation eval =
          Evaluate(candidate, model, base_seed + salt++, scenario);
      const bool better =
          (eval.feasible && !best_eval.feasible) ||
          (eval.feasible == best_eval.feasible &&
           eval.objective_ms < best_eval.objective_ms);
      if (better) {
        best = candidate;
        best_eval = eval;
      }
    }
  }

  // Hysteresis: keep a feasible incumbent unless the challenger is a clear
  // win; always leave an infeasible incumbent for the best feasible option.
  bool switch_now = false;
  if (!incumbent.feasible && best_eval.feasible) {
    switch_now = true;
  } else if (best_eval.feasible == incumbent.feasible &&
             best_eval.objective_ms <
                 options_.switch_improvement_factor *
                     incumbent.objective_ms) {
    switch_now = true;
  }

  Decision decision;
  decision.switched = switch_now && !(best == current_);
  if (switch_now) current_ = best;
  decision.chosen = current_;
  const Evaluation& chosen_eval = switch_now ? best_eval : incumbent;
  decision.objective_ms = chosen_eval.objective_ms;
  decision.t_visibility_ms = chosen_eval.t_visibility_ms;
  decision.feasible = chosen_eval.feasible;
  history_.push_back(decision);
  return current_;
}

}  // namespace pbs
