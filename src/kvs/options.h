#ifndef PBS_KVS_OPTIONS_H_
#define PBS_KVS_OPTIONS_H_

#include <string>

#include "core/backend.h"
#include "util/status.h"

namespace pbs {

/// Hedged reads (Cassandra's "rapid read protection"): if a read has not
/// assembled R responses within the hedging delay, the coordinator re-issues
/// it — to preference-list replicas it has not tried yet (kQuorumOnly
/// fan-out), or as a second attempt to the replicas that have not answered
/// (kAllN). Responses are deduplicated per replica, so R-counting and read
/// repair stay correct. The delay defaults to the `quantile` of the
/// request+response leg round trip (sum of the two legs' quantiles — an
/// upper bound, which only makes hedging slightly lazier); set delay_ms > 0
/// to pin it explicitly. Each hedge wave sends at most two extra request
/// legs.
struct HedgeOptions {
  bool enabled = false;
  double quantile = 0.99;
  double delay_ms = 0.0;   // 0 = derive from `quantile`

  Status Validate() const {
    if (quantile <= 0.0 || quantile >= 1.0) {
      return Status::InvalidArgument(
          "hedge.quantile must be in (0, 1), got " + std::to_string(quantile));
    }
    if (delay_ms < 0.0) {
      return Status::InvalidArgument("hedge.delay_ms must be >= 0");
    }
    return Status::Ok();
  }
};

/// Client-side retry policy (consumed by ClientSession): failed operations
/// retry with capped exponential backoff and deterministic jitter while a
/// per-operation deadline budget lasts. `downgrade_reads` lets a retried
/// read accept fewer responses (R, R-1, ..., 1) — trading consistency for
/// availability under gray failures; such results carry
/// StatusCode::kDowngraded so staleness accounting stays honest.
struct RetryOptions {
  int max_attempts = 1;  // 1 = no retries
  double backoff_base_ms = 10.0;
  double backoff_max_ms = 1000.0;
  double deadline_ms = 0.0;  // per-operation budget; 0 = unbounded
  bool downgrade_reads = false;

  Status Validate() const {
    if (max_attempts < 1) {
      return Status::InvalidArgument("retry.max_attempts must be >= 1");
    }
    if (backoff_base_ms < 0.0 || backoff_max_ms < 0.0) {
      return Status::InvalidArgument("retry backoff must be >= 0");
    }
    if (backoff_max_ms < backoff_base_ms) {
      return Status::InvalidArgument(
          "retry.backoff_max_ms must be >= retry.backoff_base_ms");
    }
    if (deadline_ms < 0.0) {
      return Status::InvalidArgument("retry.deadline_ms must be >= 0");
    }
    return Status::Ok();
  }
};

/// Elastic-membership rebalancing: when a storage node joins or leaves the
/// consistent-hash ring, background migration streams transfer the affected
/// key ranges from their old owners to their new owners in paced batches,
/// while coordinators fan operations out to the *union* of old- and
/// new-epoch replica sets so no acknowledged write becomes unreadable
/// mid-rebalance. Transfers travel as write-request legs in paced batches
/// (kvs/migration.h); a dropped transfer retries a bounded number of times
/// before being left to preference-list-scoped anti-entropy.
struct RebalanceOptions {
  /// Pause between consecutive migration batches from one source node.
  double stream_interval_ms = 25.0;

  /// Crash removed nodes once their data has fully drained (process
  /// decommission). Leave false to keep them around as cold spares.
  bool decommission_removed = true;

  Status Validate() const {
    if (stream_interval_ms <= 0.0) {
      return Status::InvalidArgument(
          "rebalance.stream_interval_ms must be > 0");
    }
    return Status::Ok();
  }
};

/// Closed-loop consistency controller (PCAP-style, see DESIGN.md §11): an
/// in-cluster control task that, every `epoch_ms`, re-fits the per-leg
/// latency distributions from observed samples, re-runs the WARS predictor
/// against the declared SlaTarget, and actuates at most one guarded knob
/// step (read-quorum mix probability, r_lo/r_hi/W lattice moves, hedge
/// quantile, retry budget) on the live cluster — with measurement-driven
/// rollback when the predictor's promise is not borne out.
struct ControllerOptions {
  bool enabled = false;

  /// Control epoch: sense + predict + actuate once per this many sim-ms.
  double epoch_ms = 2000.0;

  /// Observed leg samples required before the controller trusts an
  /// empirical re-fit; below this it predicts from the configured legs.
  int min_leg_samples = 64;

  /// WARS Monte Carlo budget per candidate per epoch (controller
  /// evaluations run serially inside the cluster for determinism, so this
  /// is deliberately far below the offline SlaOptimizer budgets of
  /// bench/adaptive_config and `pbs sla`).
  int trials_per_eval = 1200;

  /// Engine behind the per-epoch quorum predictor (DESIGN.md §12).
  /// kMonteCarlo (default) keeps the historical WARS trial runs — decision
  /// streams and their digests are bitwise unchanged. kAnalytic evaluates
  /// candidates on one scenario grid built from the sensed legs each epoch
  /// (no RNG, so runs are trivially thread-count deterministic). kAuto
  /// spot-checks analytic-vs-MC on the incumbent each epoch and falls back
  /// when the sensed distributions break the independence assumptions.
  PredictorBackend backend = PredictorBackend::kMonteCarlo;

  /// Analytic grid shape (kAnalytic / kAuto): uniform bins over
  /// [0, grid_max_ms). Coarse by design — the controller compares
  /// candidates, so grid bias common to all of them cancels. With
  /// grid_auto_max (the default) grid_max_ms is only a cap: the grid
  /// shrinks to the sensed legs' tail scale (AnalyticGridOptions::auto_max)
  /// so fast fleets get proportionally finer resolution.
  double grid_max_ms = 2000.0;
  int grid_bins = 8000;
  bool grid_auto_max = true;

  Status Validate() const {
    if (epoch_ms <= 0.0) {
      return Status::InvalidArgument("controller.epoch_ms must be > 0");
    }
    if (min_leg_samples < 2) {
      return Status::InvalidArgument(
          "controller.min_leg_samples must be >= 2");
    }
    if (trials_per_eval < 1) {
      return Status::InvalidArgument(
          "controller.trials_per_eval must be >= 1");
    }
    const Status grid =
        AnalyticGridOptions{grid_max_ms, grid_bins, grid_auto_max}.Validate();
    if (!grid.ok()) {
      return Status::InvalidArgument("controller." + grid.message());
    }
    return Status::Ok();
  }
};

}  // namespace pbs

#endif  // PBS_KVS_OPTIONS_H_
