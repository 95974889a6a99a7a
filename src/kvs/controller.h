#ifndef PBS_KVS_CONTROLLER_H_
#define PBS_KVS_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "kvs/profiler.h"
#include "obs/exporters.h"
#include "sim/network.h"

namespace pbs {
namespace kvs {

class Cluster;

/// Closed-loop consistency controller (ROADMAP item 3; DESIGN.md §11): a
/// PCAP-style control task running *inside* the simulated cluster that
/// steers the live read/write quorum — including McKenzie-style fractional
/// mixing — plus the hedge and retry budgets toward the declared
/// KvsConfig::sla, under drifting latency and gray failures.
///
/// Each control epoch:
///   1. SENSE   — re-fit the four WARS leg distributions from the delays
///                the cluster's LegProfiler observed so far (dist/empirical
///                fits; the configured legs are the prior until
///                min_leg_samples per leg have accrued), and difference the
///                measured freshness counters and read-latency recorder
///                over the epoch window.
///   2. ROLLBACK— if the previous epoch actuated a step whose predictor
///                said "feasible" but the *measured* window violates the
///                SLA by more than 10%, revert the step and hold for
///                cooldown_epochs.
///   3. PREDICT — re-run the WARS engine (core/adaptive's
///                EvaluateMixedQuorum) on the incumbent knob state and its
///                one-knob-step neighbors: mix +/- mix_step, r_lo +/- 1,
///                r_hi +/- 1, w +/- 1. Candidates that meet both SLA
///                clauses are preferred; ties break toward the lowest
///                predicted read p99, and a feasible incumbent is only
///                abandoned for a challenger that beats it by
///                switch_improvement_factor (hysteresis, as in
///                AdaptiveConfigController).
///   4. ACTUATE — apply at most ONE guarded knob change through the
///                cluster's Update* APIs. Every candidate differs from the
///                incumbent in exactly one knob, so no single decision can
///                widen the staleness exposure and the latency budget at
///                the same time. When the measured read p99 is over budget
///                the latency-relief ladder (enable hedging, then tighten
///                its quantile; grant a retry budget after failed reads)
///                takes the slot instead of a quorum move.
///
/// Determinism: the controller runs on the single-threaded simulator, its
/// WARS evaluations run with exec.threads = 1, and it consumes no RNG of
/// its own (the per-read mix draw comes from the cluster's dedicated
/// salted stream, consumed only while mixing is active) — so campaign
/// runs embedding a controller stay bitwise identical at any thread
/// count, and controller-off runs reproduce feature-absent draw
/// sequences. See DESIGN.md §11 for the full contract.
class ConsistencyController {
 public:
  /// One control decision, appended per epoch (kept for export/digesting).
  struct Decision {
    int64_t id = 0;          // monotonically increasing, 1-based
    int64_t epoch = 0;       // control tick index, 1-based
    double time_ms = 0.0;    // sim time the decision was taken
    // What happened: "hold" (keep incumbent), "cooldown", a knob step
    // ("mix+", "mix-", "r_lo+", "r_lo-", "r_hi+", "r_hi-", "w+", "w-",
    // "hedge_on", "hedge_tighten", "retry+"), or "rollback:<knob>".
    std::string action;
    // Knob state after the decision.
    MixedQuorum quorum;
    bool hedge_enabled = false;
    double hedge_quantile = 0.0;
    int retry_attempts = 1;
    double retry_deadline_ms = 0.0;
    // Predictor outputs for the chosen state (NaN-free; 0 when the epoch
    // skipped prediction, e.g. cooldown holds).
    double predicted_fresh = 0.0;
    double predicted_p99_ms = 0.0;
    bool predicted_feasible = false;
    // Measured over the preceding epoch window (-1 fresh fraction when the
    // window had no measured reads).
    double measured_fresh = -1.0;
    double measured_p99_ms = 0.0;
    int64_t measured_reads = 0;

    /// One arm of the per-epoch candidate audit (explainability): the
    /// incumbent plus every one-knob neighbor the predictor evaluated, with
    /// its predicted clauses and whether it was the arm actuated. Empty for
    /// epochs that skipped prediction (cooldown and relief-ladder steps).
    struct CandidateOutcome {
      std::string action;  // "incumbent" or the knob-step name
      MixedQuorum quorum;
      double predicted_fresh = 0.0;
      double predicted_p99_ms = 0.0;
      bool predicted_feasible = false;
      bool chosen = false;

      friend bool operator==(const CandidateOutcome&,
                             const CandidateOutcome&) = default;
    };
    std::vector<CandidateOutcome> candidates;

    // Measured outcome of the chosen arm over the FOLLOWING epoch window,
    // backfilled by the next Tick (-1 fresh fraction until then, or when no
    // reads landed). Candidates and outcomes are audit-only: DecisionDigest
    // deliberately excludes them so existing determinism pins stay valid.
    double outcome_fresh = -1.0;
    double outcome_p99_ms = 0.0;
    int64_t outcome_reads = 0;

    friend bool operator==(const Decision&, const Decision&) = default;
  };

  /// Reads sla/controller policy from cluster->config(). The cluster must
  /// outlive the controller. If no LegProfiler is attached yet the
  /// controller attaches (and owns) one so sensing has a source.
  explicit ConsistencyController(Cluster* cluster);

  /// Schedules the periodic control tick (idempotent). The task
  /// reschedules itself forever; bound the run with RunUntil.
  void Start();

  const std::vector<Decision>& decisions() const { return decisions_; }

  /// Configuration history for the staleness-audit join: one record per
  /// actuation (plus the initial state at time 0), sorted by
  /// valid_from_ms.
  const std::vector<obs::AdaptationRecord>& config_history() const {
    return config_history_;
  }

  /// FNV-1a digest over the full decision stream (ids, actions, knob
  /// states, predictor and measurement scalars bit-exactly). Two runs with
  /// equal digests made identical decisions at identical times.
  uint64_t DecisionDigest() const;

 private:
  struct KnobState {
    MixedQuorum quorum;
    bool hedge_enabled = false;
    double hedge_quantile = 0.99;
    int retry_attempts = 1;
    double retry_deadline_ms = 0.0;
  };
  struct Measurement {
    int64_t reads = 0;
    double fresh_fraction = -1.0;  // -1: no measured reads in the window
    double read_p99_ms = 0.0;
    int64_t failed_reads = 0;
  };

  void Tick();
  Measurement MeasureWindow();
  /// Leg re-fit: empirical WARS model from profiler samples, or the
  /// configured legs while any leg is starved.
  ReplicaLatencyModelPtr SenseModel() const;
  /// Builds the epoch's evaluation engine over the sensed model, probing
  /// `current` (controller.backend selects MC / analytic / auto; under the
  /// default kMonteCarlo this is a plain pass-through to
  /// EvaluateMixedQuorum, keeping decision streams bitwise unchanged).
  MixedQuorumPredictor MakeEpochPredictor(const ReplicaLatencyModelPtr& model,
                                          const MixedQuorum& current) const;
  MixedQuorumEvaluation Predict(const MixedQuorum& quorum,
                                const MixedQuorumPredictor& predictor,
                                uint64_t salt) const;
  /// Applies `next` to the live cluster (only the knobs that differ).
  void Actuate(const KnobState& next);
  void AppendHistory(const Decision& decision);
  KnobState CurrentKnobs() const;

  Cluster* cluster_;
  SlaTarget sla_;
  LegProfiler owned_profiler_;
  bool started_ = false;
  int64_t epoch_ = 0;
  int cooldown_ = 0;

  // Rollback arming: the knob state before the last actuated step and the
  // predictor's promise for the step, checked against the next window.
  bool step_armed_ = false;
  KnobState pre_step_;
  std::string last_step_action_;

  // Epoch-window baselines (counter snapshots at the last tick).
  size_t read_latency_seen_ = 0;
  int64_t fresh_seen_ = 0;
  int64_t stale_seen_ = 0;
  int64_t reads_failed_seen_ = 0;

  std::vector<Decision> decisions_;
  std::vector<obs::AdaptationRecord> config_history_;
};

/// Serializes a decision stream as JSONL "decision" typed lines, each with
/// its inline "candidates" array — appendable after the time-series and
/// monitor exports so one telemetry artifact carries the controller's
/// per-epoch candidate audit (consumed by obs::RenderDashboardHtml).
/// Byte-deterministic.
std::string DecisionsJsonl(
    const std::vector<ConsistencyController::Decision>& decisions);

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_CONTROLLER_H_
