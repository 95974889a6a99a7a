#include "core/adaptive.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "core/analytic.h"
#include "core/predictor.h"
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
  PredictorOptions resolve;
  resolve.trials = options_.trials;
  resolve.seed = kSpotCheckSeed;
  resolve.exec = options_.exec;
  resolve.backend = options_.backend;
  resolve.grid = options_.grid;
  auto scenario = ResolveAnalyticScenario(
      model_, resolve, QuorumConfig{probe.n, probe.r_hi, probe.w}, &note_);
  if (scenario.ok()) {
    scenario_ = std::move(scenario.value());
  } else {
    note_ = scenario.status().message() + "; using Monte Carlo";
  }
}

MixedQuorumPredictor::~MixedQuorumPredictor() = default;

MixedQuorumEvaluation MixedQuorumPredictor::Evaluate(const MixedQuorum& quorum,
                                                     uint64_t seed) const {
  if (scenario_ != nullptr) {
    return EvaluateMixedQuorumAnalytic(quorum, sla_, scenario_,
                                       options_.read_fanout);
  }
  return EvaluateMixedQuorum(quorum, sla_, model_, options_.trials, seed,
                             options_.read_fanout, options_.exec);
}

}  // namespace pbs
