#ifndef PBS_CORE_SLA_H_
#define PBS_CORE_SLA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/backend.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "util/status.h"

namespace pbs {

/// Constraints for the Section 6 "Latency/Staleness SLA" optimization:
/// choose (N, R, W) minimizing operation latency subject to a staleness
/// bound and a durability floor.
struct SlaConstraints {
  /// Configurations with n in [min_n, max_n] are considered (the paper notes
  /// the search space is only O(N^2) per N).
  int min_n = 1;
  int max_n = 5;

  /// Durability/availability floor: at least this many replicas must
  /// acknowledge every write (operators "specify a minimum replication
  /// factor for durability").
  int min_write_quorum = 1;

  /// The staleness SLA: with probability `consistency_probability`, reads
  /// must be consistent within `max_t_visibility_ms` of a write commit.
  double consistency_probability = 0.999;
  double max_t_visibility_ms = 10.0;

  /// InvalidArgument unless p in (0, 1], max t >= 0, 1 <= min_n <= max_n
  /// and min_write_quorum >= 1.
  Status Validate() const;
};

/// Objective: minimize a weighted combination of read and write latency at
/// the given percentile (weights typically reflect the workload's op mix).
struct SlaObjective {
  double latency_percentile = 99.9;
  double read_weight = 0.5;
  double write_weight = 0.5;

  /// InvalidArgument unless the percentile is in [0, 100] and both weights
  /// are >= 0.
  Status Validate() const;
};

/// One evaluated configuration.
struct SlaCandidate {
  QuorumConfig config;
  double t_visibility_ms = 0.0;   // t at the target consistency probability
  double read_latency_ms = 0.0;   // at the objective percentile
  double write_latency_ms = 0.0;  // at the objective percentile
  double objective = 0.0;
  bool feasible = false;
};

/// Hysteresis margin of every re-pick: a challenger replaces a feasible
/// incumbent only when its objective is below this fraction of the
/// incumbent's, so near-equivalent configurations do not flap on Monte
/// Carlo noise. Shared by Repick and kvs::ConsistencyController.
inline constexpr double kSwitchImprovementFactor = 0.9;

/// Enumerates and scores quorum configurations against an SLA through the
/// prediction engines of core/predictor.h. The caller provides a
/// latency-model factory because the model depends on N (e.g.
/// MakeIidModel(LnkdDisk(), n)).
class SlaOptimizer {
 public:
  using ModelFactory = std::function<ReplicaLatencyModelPtr(int n)>;

  /// Grid of the analytic engine (kAnalytic, kAuto). Coarser than the
  /// predictor default: the optimizer compares candidates, so grid bias
  /// common to all of them cancels.
  static constexpr AnalyticGridOptions kGrid{2000.0, 8000, true};

  /// Every candidate is scored from `trials_per_config` Monte Carlo trials
  /// seeded with `seed` (common random numbers across candidates), or from
  /// one analytic scenario per N when `backend` resolves to analytic.
  SlaOptimizer(ModelFactory factory, int trials_per_config, uint64_t seed,
               const PbsExecutionOptions& exec = {},
               PredictorBackend backend = PredictorBackend::kMonteCarlo);

  /// Scores every (n, r, w) in the constraint box, sorted feasible first,
  /// then by objective; ties keep enumeration order (n, then r, then w).
  /// InvalidArgument for invalid constraints or objective, or a model the
  /// backend cannot serve.
  StatusOr<std::vector<SlaCandidate>> EnumerateAll(
      const SlaConstraints& constraints, const SlaObjective& objective) const;

  /// Best feasible configuration; NotFound if the SLA is unsatisfiable
  /// within the box, or EnumerateAll's error.
  StatusOr<SlaCandidate> Optimize(const SlaConstraints& constraints,
                                  const SlaObjective& objective) const;

 private:
  ModelFactory factory_;
  int trials_per_config_;
  uint64_t seed_;
  PbsExecutionOptions exec_;
  PredictorBackend backend_;
};

/// Section 6 "Variable configurations": re-picks the configuration to run
/// from one EnumerateAll scoring (non-empty) of the current model. An
/// infeasible incumbent yields to the best feasible cell; a feasible one,
/// or an infeasible one when no cell is feasible, yields only to a cell
/// whose objective is below kSwitchImprovementFactor times its own. An
/// incumbent missing from `scored` yields to the best cell.
SlaCandidate Repick(const QuorumConfig& incumbent,
                    const std::vector<SlaCandidate>& scored);

}  // namespace pbs

#endif  // PBS_CORE_SLA_H_
