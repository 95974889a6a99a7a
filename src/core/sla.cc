#include "core/sla.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/predictor.h"

namespace pbs {

Status SlaConstraints::Validate() const {
  if (!(consistency_probability > 0.0 && consistency_probability <= 1.0)) {
    return Status::InvalidArgument(
        "sla: consistency_probability must be in (0, 1], got " +
        std::to_string(consistency_probability));
  }
  if (!(max_t_visibility_ms >= 0.0)) {
    return Status::InvalidArgument(
        "sla: max_t_visibility_ms must be >= 0, got " +
        std::to_string(max_t_visibility_ms));
  }
  if (min_n < 1 || max_n < min_n) {
    return Status::InvalidArgument(
        "sla: need 1 <= min_n <= max_n, got min_n=" + std::to_string(min_n) +
        " max_n=" + std::to_string(max_n));
  }
  if (min_write_quorum < 1) {
    return Status::InvalidArgument("sla: min_write_quorum must be >= 1, got " +
                                   std::to_string(min_write_quorum));
  }
  return Status::Ok();
}

Status SlaObjective::Validate() const {
  if (!(latency_percentile >= 0.0 && latency_percentile <= 100.0)) {
    return Status::InvalidArgument(
        "sla: latency_percentile must be in [0, 100], got " +
        std::to_string(latency_percentile));
  }
  if (!(read_weight >= 0.0 && write_weight >= 0.0)) {
    return Status::InvalidArgument(
        "sla: read and write weights must be >= 0, got " +
        std::to_string(read_weight) + " and " + std::to_string(write_weight));
  }
  return Status::Ok();
}

SlaOptimizer::SlaOptimizer(ModelFactory factory, int trials_per_config,
                           uint64_t seed, const PbsExecutionOptions& exec,
                           PredictorBackend backend)
    : factory_(std::move(factory)), trials_per_config_(trials_per_config),
      seed_(seed), exec_(exec), backend_(backend) {
  assert(factory_ != nullptr);
}

StatusOr<std::vector<SlaCandidate>> SlaOptimizer::EnumerateAll(
    const SlaConstraints& constraints, const SlaObjective& objective) const {
  Status status = constraints.Validate();
  if (status.ok()) status = objective.Validate();
  if (!status.ok()) return status;

  PredictorOptions options;
  options.trials = trials_per_config_;
  options.seed = seed_;
  options.collect_propagation = false;
  options.exec = exec_;
  options.backend = backend_;
  options.grid = kGrid;

  std::vector<SlaCandidate> candidates;
  for (int n = constraints.min_n; n <= constraints.max_n; ++n) {
    const ReplicaLatencyModelPtr model = factory_(n);
    // One backend decision per N: every (r, w) cell shares its scenario.
    const auto scenario =
        ResolveAnalyticScenario(model, options, QuorumConfig{n, 1, 1});
    if (!scenario.ok()) return scenario.status();
    for (int r = 1; r <= n; ++r) {
      for (int w = constraints.min_write_quorum; w <= n; ++w) {
        const QuorumConfig config{n, r, w};
        const auto engine =
            BuildPredictionEngine(config, model, options, scenario.value());
        SlaCandidate candidate;
        candidate.config = config;
        candidate.t_visibility_ms =
            engine->TimeForConsistency(constraints.consistency_probability);
        candidate.read_latency_ms =
            engine->ReadLatencyPercentile(objective.latency_percentile);
        candidate.write_latency_ms =
            engine->WriteLatencyPercentile(objective.latency_percentile);
        candidate.objective =
            objective.read_weight * candidate.read_latency_ms +
            objective.write_weight * candidate.write_latency_ms;
        candidate.feasible =
            candidate.t_visibility_ms <= constraints.max_t_visibility_ms;
        candidates.push_back(candidate);
      }
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SlaCandidate& a, const SlaCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.objective < b.objective;
                   });
  return candidates;
}

StatusOr<SlaCandidate> SlaOptimizer::Optimize(
    const SlaConstraints& constraints, const SlaObjective& objective) const {
  const auto candidates = EnumerateAll(constraints, objective);
  if (!candidates.ok()) return candidates.status();
  if (candidates.value().empty() || !candidates.value().front().feasible) {
    return Status::NotFound(
        "no configuration satisfies the staleness SLA within the search box");
  }
  return candidates.value().front();
}

SlaCandidate Repick(const QuorumConfig& incumbent,
                    const std::vector<SlaCandidate>& scored) {
  assert(!scored.empty());
  // EnumerateAll's order puts the best cell first, so one comparison against
  // it decides; a tie with the incumbent never clears the margin.
  const SlaCandidate& best = scored.front();
  const auto held =
      std::find_if(scored.begin(), scored.end(),
                   [&](const SlaCandidate& c) { return c.config == incumbent; });
  if (held == scored.end()) return best;
  if (!held->feasible && best.feasible) return best;
  return best.objective < kSwitchImprovementFactor * held->objective ? best
                                                                     : *held;
}

}  // namespace pbs
