#ifndef PBS_CORE_ADAPTIVE_H_
#define PBS_CORE_ADAPTIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "util/status.h"

namespace pbs {

class AnalyticScenario;  // core/analytic.h
using AnalyticScenarioPtr = std::shared_ptr<const AnalyticScenario>;

/// A declared consistency/latency SLA in the PCAP style (Rahman et al.,
/// arXiv:1509.02464): "at least `fresh_probability` of reads return data no
/// staler than `staleness_bound_ms`, at read p99 latency <=
/// `read_p99_ms`". The staleness clause is the paper's (t, p)-visibility
/// target; the latency clause is what keeps the controller from buying
/// freshness with unbounded quorum widening.
struct SlaTarget {
  double fresh_probability = 0.0;  // 0 == SLA disabled
  double staleness_bound_ms = 0.0;
  double read_p99_ms = 0.0;

  bool enabled() const { return fresh_probability > 0.0; }
  Status Validate() const;

  /// Parses the CLI/SLA wire form "p=0.999,t=10,p99<=15" (three
  /// comma-separated clauses, any order, no whitespace): p = fresh
  /// probability in (0, 1), t = staleness bound in ms (>= 0), p99<= = read
  /// p99 budget in ms (> 0).
  static StatusOr<SlaTarget> Parse(const std::string& text);

  friend bool operator==(const SlaTarget&, const SlaTarget&) = default;
};

/// McKenzie-style continuous partial quorum (arXiv:1507.03162): each read
/// independently uses R = `r_lo` with probability `mix`, else R = `r_hi`.
/// Varying `mix` in [0, 1] sweeps the consistency/latency tradeoff
/// continuously between the two discrete lattice points, which the plain
/// (R, W) grid cannot do. `mix` == 0 (or r_lo == r_hi) degenerates to the
/// fixed quorum (n, r_hi, w).
struct MixedQuorum {
  int n = 3;
  int r_lo = 1;
  int r_hi = 2;
  int w = 2;
  double mix = 0.0;  // P(read uses r_lo)

  bool IsValid() const {
    return n >= 1 && w >= 1 && w <= n && r_lo >= 1 && r_hi >= r_lo &&
           r_hi <= n && mix >= 0.0 && mix <= 1.0;
  }
  bool mixing() const { return mix > 0.0 && mix < 1.0 && r_lo != r_hi; }
  friend bool operator==(const MixedQuorum&, const MixedQuorum&) = default;
};

/// Predicted SLA attainment of a mixed quorum under a latency model.
struct MixedQuorumEvaluation {
  double fresh_probability = 0.0;  // P(staleness threshold <= SLA bound)
  double read_p99_ms = 0.0;
  double write_p99_ms = 0.0;
  bool feasible = false;  // both SLA clauses predicted to hold
};

/// Quantile of a two-component mixture from the components' sorted sample
/// arrays: F(x) = weight_lo * F_lo(x) + weight_hi * F_hi(x), returns the
/// smallest sample value with F >= q. Weights must be >= 0 and sum to ~1;
/// an empty component is treated as weight 0. NaN when both are empty.
double MixtureQuantileSorted(const std::vector<double>& lo_sorted,
                             double weight_lo,
                             const std::vector<double>& hi_sorted,
                             double weight_hi, double q);

/// WARS prediction for a mixed quorum against an SLA: runs one trial batch
/// per component quorum (r_lo and r_hi arms share `seed`-derived streams
/// deterministically) and combines them by mixture weight — freshness as
/// mix * P_lo + (1 - mix) * P_hi, latency quantiles through
/// MixtureQuantileSorted. Deterministic given (seed, exec.chunk_size) at
/// any thread count, like RunWarsTrials itself.
MixedQuorumEvaluation EvaluateMixedQuorum(const MixedQuorum& quorum,
                                          const SlaTarget& sla,
                                          const ReplicaLatencyModelPtr& model,
                                          int trials, uint64_t seed,
                                          ReadFanout read_fanout,
                                          const PbsExecutionOptions& exec = {});

/// Analytic counterpart of EvaluateMixedQuorum on a pre-built scenario: the
/// r_lo / r_hi arms are exact order-statistic CDFs of the scenario's r+s
/// grid, combined by DiscretizedDistribution::Mixture with the same arm
/// weights as the Monte Carlo path; freshness comes from AnalyticWars's
/// approximate t-visibility at the SLA's staleness bound. Deterministic
/// (no RNG at all) and microseconds per call after the scenario is built —
/// this is the controller's cheap per-epoch evaluator.
MixedQuorumEvaluation EvaluateMixedQuorumAnalytic(
    const MixedQuorum& quorum, const SlaTarget& sla,
    const AnalyticScenarioPtr& scenario,
    ReadFanout read_fanout = ReadFanout::kAllN);

/// Backend-dispatched mixed-quorum evaluation: one object bound to an SLA
/// and a latency model, answering Evaluate(quorum, seed) through whichever
/// engine its options select — the Monte Carlo arms (exactly
/// EvaluateMixedQuorum), or the analytic scenario (EvaluateMixedQuorumAnalytic,
/// ignoring `seed`). kAuto resolves at construction: non-IID models fall
/// back to Monte Carlo outright; IID models keep the analytic engine only
/// when its evaluation of the `probe` quorum agrees with a small Monte
/// Carlo run within the kAuto* tolerances of core/backend.h. The
/// consistency controller builds one of these per control epoch.
class MixedQuorumPredictor {
 public:
  struct Options {
    PredictorBackend backend = PredictorBackend::kMonteCarlo;
    /// Monte Carlo trial budget per Evaluate (kMonteCarlo and fallback).
    int trials = 1200;
    ReadFanout read_fanout = ReadFanout::kAllN;
    PbsExecutionOptions exec;
    /// Analytic grid shape (kAnalytic / kAuto).
    AnalyticGridOptions grid{2000.0, 8000};
  };

  /// Infallible by design (the controller cannot surface a Status mid-epoch):
  /// analytic construction problems — non-IID model under kAnalytic, a bad
  /// grid — fall back to Monte Carlo and record why in note().
  MixedQuorumPredictor(const SlaTarget& sla, ReplicaLatencyModelPtr model,
                       const MixedQuorum& probe, const Options& options);
  ~MixedQuorumPredictor();

  MixedQuorumEvaluation Evaluate(const MixedQuorum& quorum,
                                 uint64_t seed) const;

  /// The engine actually answering (kAuto resolved; never kAuto itself).
  PredictorBackend backend() const { return resolved_; }
  /// Why kAuto / kAnalytic resolved to Monte Carlo (empty when analytic
  /// stuck, or when Monte Carlo was asked for directly).
  const std::string& note() const { return note_; }

 private:
  SlaTarget sla_;
  ReplicaLatencyModelPtr model_;
  Options options_;
  PredictorBackend resolved_ = PredictorBackend::kMonteCarlo;
  AnalyticScenarioPtr scenario_;
  std::string note_;
};

/// Section 6 "Variable configurations": periodically re-pick R and W (N is
/// fixed by durability/placement) as the environment's latency
/// distributions drift, keeping a staleness SLA while minimizing latency.
struct AdaptiveControllerOptions {
  /// The SLA: reads consistent within `max_t_visibility_ms` of commit with
  /// probability `consistency_probability`.
  double consistency_probability = 0.999;
  double max_t_visibility_ms = 10.0;

  /// Objective: weighted read/write latency at this percentile.
  double latency_percentile = 99.9;
  double read_weight = 0.5;
  double write_weight = 0.5;

  /// Hysteresis: only switch away from the current (still feasible)
  /// configuration when the challenger's objective is below
  /// `switch_improvement_factor` times the current one. Prevents flapping
  /// between near-equivalent configs on Monte Carlo noise.
  double switch_improvement_factor = 0.9;

  /// Monte Carlo budget per candidate per Update() call.
  int trials_per_eval = 20000;

  uint64_t seed = 1;

  /// Thread count and chunking for each candidate evaluation; results do
  /// not depend on the thread count.
  PbsExecutionOptions exec;

  /// Which engine evaluates candidates (DESIGN.md §12). kMonteCarlo keeps
  /// the historical per-epoch trial runs; kAnalytic evaluates the whole
  /// (R, W) lattice off one scenario grid (O(bins log bins) to build, then
  /// O(bins * n) per candidate — orders of magnitude cheaper per epoch);
  /// kAuto spot-checks the analytic engine against the incumbent's Monte
  /// Carlo evaluation each Update and falls back when they disagree.
  PredictorBackend backend = PredictorBackend::kMonteCarlo;
  /// Analytic grid shape. Coarser than the predictor default: the
  /// controller compares candidates, so grid bias common to all of them
  /// cancels, and epochs should stay cheap.
  AnalyticGridOptions grid{2000.0, 8000};
};

/// Online controller. Feed it the latest latency model (measured online or
/// assumed) each control epoch; it returns the configuration to run with.
class AdaptiveConfigController {
 public:
  /// One evaluated control decision (also kept in history()).
  struct Decision {
    QuorumConfig chosen;
    double objective_ms = 0.0;
    double t_visibility_ms = 0.0;
    bool feasible = false;  // chosen config meets the SLA
    bool switched = false;  // differs from the previous epoch's config
  };

  AdaptiveConfigController(QuorumConfig initial,
                           const AdaptiveControllerOptions& options);

  /// Re-evaluates all (R, W) pairs for the fixed N under `model` and
  /// returns the recommended configuration. The current configuration is
  /// retained unless it became infeasible or a challenger beats it by the
  /// hysteresis margin. The options' backend picks the evaluator per call
  /// (the model may change between epochs): under kAnalytic every candidate
  /// shares one scenario grid; under kAuto the analytic engine must first
  /// agree with the incumbent's Monte Carlo evaluation within the kAuto
  /// latency tolerances of core/backend.h (the spot-check reuses the
  /// incumbent's trials_per_eval evaluation), else this epoch runs on
  /// Monte Carlo.
  QuorumConfig Update(const ReplicaLatencyModelPtr& model);

  const QuorumConfig& current() const { return current_; }
  const std::vector<Decision>& history() const { return history_; }
  /// Engine used by the most recent Update (kAuto resolved per epoch).
  PredictorBackend last_backend() const { return last_backend_; }

 private:
  struct Evaluation {
    double objective_ms = 0.0;
    double t_visibility_ms = 0.0;
    bool feasible = false;
  };
  /// Monte Carlo when `scenario` is null, analytic (seed unused) otherwise.
  Evaluation Evaluate(const QuorumConfig& config,
                      const ReplicaLatencyModelPtr& model, uint64_t seed,
                      const AnalyticScenarioPtr& scenario) const;

  QuorumConfig current_;
  AdaptiveControllerOptions options_;
  uint64_t epoch_ = 0;
  std::vector<Decision> history_;
  PredictorBackend last_backend_ = PredictorBackend::kMonteCarlo;
};

}  // namespace pbs

#endif  // PBS_CORE_ADAPTIVE_H_
