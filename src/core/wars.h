#ifndef PBS_CORE_WARS_H_
#define PBS_CORE_WARS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quorum_config.h"
#include "dist/production.h"
#include "obs/registry.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace pbs {

/// Produces per-replica WARS delay samples for one trial: the one-way
/// message delays of each replica within one write-then-read operation
/// pair (Figure 3 of the paper) — w, the write request (coordinator ->
/// replica); a, the write acknowledgment (replica -> coordinator); r, the
/// read request (coordinator -> replica); s, the read response (replica ->
/// coordinator). The common case is IID legs (each replica's delays drawn
/// from shared W/A/R/S distributions); the WAN model makes one replica
/// local and delays every leg of the others.
///
/// RNG-consumption contract (v2, see DESIGN.md): models sample leg-major —
/// all N w legs, then all a, r, s legs — through compiled sampler plans
/// (dist/sampler.h) that consume exactly one uniform draw per leg value.
/// Models that pick coordinator replicas draw those *before* the legs, and
/// the local-coordinator model samples all N replicas' legs then overwrites
/// the local ones (fixed draw count per trial, so parallel sub-streams stay
/// deterministic). This replaces the v1 per-replica (w,a,r,s) interleaved
/// order; results remain bitwise identical at any thread count for a given
/// seed, but differ from v1 outputs for the same seed.
class ReplicaLatencyModel {
 public:
  virtual ~ReplicaLatencyModel() = default;

  virtual int num_replicas() const = 0;

  /// Hot path: fills legs[0 .. 4*num_replicas()) with one trial's delays in
  /// leg-major (structure-of-arrays) order:
  ///   legs[i] = w_i, legs[n+i] = a_i, legs[2n+i] = r_i, legs[3n+i] = s_i.
  virtual void SampleTrialSoA(Rng& rng, double* legs) const = 0;

  /// Block variant used by the parallel engine: fills
  /// legs[0 .. 4*n*trials) with `trials` independent trials in column-major
  /// layout — leg L of replica i in trial t at legs[(L*n + i)*trials + t],
  /// i.e. each (leg, replica) pair owns a contiguous column of `trials`
  /// values. Per-sample batches of 4n values are too small to amortize the
  /// batched kernels; sampling ~trials*4n values per call restores
  /// large-batch throughput, and the column layout lets the trial evaluator
  /// vectorize its sorting networks ACROSS trials. The base implementation
  /// loops SampleTrialSoA (per-trial draw order), scattering into columns;
  /// the IID model overrides it with one fused block draw (a different, but
  /// equally deterministic, draw order; both are fixed functions of the
  /// stream and block size).
  virtual void SampleTrialsSoA(Rng& rng, int trials, double* legs) const;

  /// The shared per-leg distributions when this model is IID across
  /// replicas, nullptr otherwise (WAN, heterogeneous, local-coordinator).
  /// The analytic backend keys its independence assumptions on this: a
  /// non-null result is the license to solve over the four leg
  /// distributions; null forces the Monte Carlo fallback. The pointer is
  /// owned by the model and valid for its lifetime.
  virtual const WarsDistributions* IidLegs() const { return nullptr; }

  virtual std::string Describe() const = 0;
};

using ReplicaLatencyModelPtr = std::shared_ptr<const ReplicaLatencyModel>;

/// IID model: every replica's (w, a, r, s) drawn independently from the four
/// distributions in `dists` — the paper's assumption for LNKD-* and YMMR.
ReplicaLatencyModelPtr MakeIidModel(const WarsDistributions& dists, int n);

/// WAN model (Section 5.5): operations originate in a random datacenter.
/// The replica co-located with the write coordinator sees plain `base`
/// delays for its write/ack legs; all other replicas add `one_way_ms` to
/// each of those legs. The read coordinator's datacenter is drawn
/// independently (a read may originate anywhere), and its r/s legs are
/// delayed the same way.
ReplicaLatencyModelPtr MakeWanModel(const WarsDistributions& base, int n,
                                    double one_way_ms = kWanOneWayDelayMs);

/// Per-replica heterogeneous model: replica i uses dists[i]; used to model
/// mixed fleets (e.g. one slow disk node in an SSD cluster).
ReplicaLatencyModelPtr MakeHeterogeneousModel(
    std::vector<WarsDistributions> dists);

/// Section 4.2 "Proxying operations": the coordinator is itself one of the
/// N replicas, so its own request/ack/response legs are local
/// (`local_delay_ms`, ~0). The write coordinator's replica is drawn
/// uniformly per operation pair; with `same_coordinator` the read uses the
/// same replica (a session stuck to one node — the read-your-writes-ish
/// case), otherwise an independently random one. The paper notes a read or
/// write to R (W) nodes then "behaves like a read or write to R-1 (W-1)
/// nodes".
ReplicaLatencyModelPtr MakeLocalCoordinatorModel(
    const WarsDistributions& base, int n, bool same_coordinator,
    double local_delay_ms = 0.0);

/// The outcome of one WARS Monte Carlo trial (Section 5.1).
struct WarsTrial {
  /// Write operation latency: the W-th smallest w[i] + a[i] — the commit
  /// time wt at which the coordinator has W acknowledgments.
  double write_latency = 0.0;

  /// Read operation latency: the R-th smallest r[j] + s[j].
  double read_latency = 0.0;

  /// Consistency threshold t*: the smallest t >= 0 such that a read issued
  /// t after commit returns the committed version. Among the first R
  /// responders (ordered by r[j] + s[j]), replica j is fresh iff
  /// wt + t + r[j] >= w[j]; hence t* = max(0, min_j (w[j] - wt - r[j])).
  /// P(consistent | t) = P(t* <= t), so the ECDF of t* over many trials IS
  /// the t-visibility curve and its quantiles invert it exactly.
  double staleness_threshold = 0.0;

  /// Time after commit at which the c-th replica receives the write, for
  /// c in [1, N]: sorted (w[i] - wt) clamped below at 0. Entry c-1
  /// corresponds to c replicas holding the version; used to estimate the
  /// write-propagation CDF Pw(c, t) that feeds Equation 4.
  std::vector<double> propagation_times;
};

/// Read fan-out policy (Section 2.3). Dynamo-style coordinators send reads
/// to all N replicas and keep the first R responses; Voldemort sends to
/// exactly R replicas and waits for all of them — fewer messages and less
/// replica load, at the cost of read latency (max instead of R-th order
/// statistic) and availability. "Provided staleness probabilities are
/// independent across requests, this does not affect staleness."
enum class ReadFanout {
  kAllN,        // Dynamo: N requests, first R responses
  kQuorumOnly,  // Voldemort: R requests to a random R-subset, wait for all
};

/// WARS Monte Carlo simulator. Deterministic given (config, model, seed).
class WarsSimulator {
 public:
  WarsSimulator(const QuorumConfig& config, ReplicaLatencyModelPtr model,
                uint64_t seed, ReadFanout read_fanout = ReadFanout::kAllN);

  /// Samples from an explicit RNG stream instead of a fresh seed; this is
  /// how the parallel engine gives each trial chunk its own Jump()-derived
  /// sub-stream.
  WarsSimulator(const QuorumConfig& config, ReplicaLatencyModelPtr model,
                Rng rng, ReadFanout read_fanout = ReadFanout::kAllN);

  /// Runs one trial. Set `want_propagation` to also fill
  /// WarsTrial::propagation_times (slightly more work per trial).
  WarsTrial RunTrial(bool want_propagation = false);

  /// Allocation-free variant for hot loops: overwrites `*trial`, reusing its
  /// propagation_times capacity. After the constructor warms the per-
  /// simulator buffers, steady-state trials perform no heap allocation.
  void RunTrialInto(WarsTrial* trial, bool want_propagation = false);

  /// Engine hot path: runs `count` trials with legs sampled in fixed-size
  /// blocks through ReplicaLatencyModel::SampleTrialsSoA, writing the
  /// per-trial scalars into the given column slices (each of length
  /// `count`). When `prop_cols` is non-null it must point at n column
  /// slices; propagation_times[c] of trial t goes to prop_cols[c][t].
  /// Consumes the same RNG stream as repeated RunTrialInto but in block
  /// draw order (see SampleTrialsSoA).
  void RunTrialBlock(int count, double* write_latency, double* read_latency,
                     double* staleness, double* const* prop_cols);

  const QuorumConfig& config() const { return config_; }
  const ReplicaLatencyModel& model() const { return *model_; }

 private:
  /// Trials per SampleTrialsSoA block: sized so a block is ~4096 leg values
  /// (large enough for full batched-kernel throughput, small enough to stay
  /// in L1/L2). Must depend on nothing but n — the engine's draw order, and
  /// hence its output, is a fixed function of (seed, chunk layout, n).
  static int TrialBlock(int n);

  /// Evaluates one trial's order statistics from leg-major SoA pointers
  /// (w/a/r/s each of length n). Shared by the per-trial and block paths.
  void ComputeTrialFromLegs(const double* w, const double* a, const double* r,
                            const double* s, WarsTrial* trial,
                            bool want_propagation);

  QuorumConfig config_;
  ReplicaLatencyModelPtr model_;
  Rng rng_;
  ReadFanout read_fanout_;
  // Per-simulator scratch, sized once in the constructor. legs_ is the
  // leg-major SoA block filled by SampleTrialSoA; the others are derived
  // per-trial columns (order statistics run on these, never on legs_).
  std::vector<double> legs_;            // 4n: [w | a | r | s]
  std::vector<double> legs_block_;      // 4n * TrialBlock(n), lazily sized
  std::vector<double> cols_;            // block-path scratch: wa|rs|gap|prop
  std::vector<double> write_arrival_;   // w[i] + a[i]
  std::vector<double> read_round_trip_; // r[j] + s[j]
  std::vector<double> freshness_gap_;   // w[j] - r[j], co-sorted with r+s
  std::vector<int> read_order_;         // replica indices (subset draws, n>8)
};

/// A batch of trials, stored as parallel columns for cheap quantile queries.
struct WarsTrialSet {
  std::vector<double> write_latencies;
  std::vector<double> read_latencies;
  std::vector<double> staleness_thresholds;
  /// propagation[c-1] holds, across trials, the time after commit until c
  /// replicas had the version (empty unless requested).
  std::vector<std::vector<double>> propagation;
};

/// Runs `trials` WARS trials and collects the columns. The workhorse behind
/// t-visibility curves, latency percentiles and Pw estimation.
///
/// Executes on `exec.threads` workers (default: all hardware threads).
/// Trials are cut into fixed-size chunks, chunk c always draws from the c-th
/// Jump()-derived sub-stream of `seed`, and every chunk writes its own slice
/// of the pre-sized columns — so the returned WarsTrialSet is bitwise
/// identical for a given (seed, exec.chunk_size) at ANY thread count.
WarsTrialSet RunWarsTrials(const QuorumConfig& config,
                           const ReplicaLatencyModelPtr& model, int trials,
                           uint64_t seed, bool want_propagation = false,
                           ReadFanout read_fanout = ReadFanout::kAllN,
                           const PbsExecutionOptions& exec = {});

/// RunWarsTrials plus instrumentation: each chunk fills a chunk-local
/// registry ("wars/write_latency_ms", "wars/read_latency_ms",
/// "wars/staleness_threshold_ms" histograms and a "wars/trials" counter)
/// from its finished trial columns, and the chunk registries are merged
/// into `*registry` in chunk order — bitwise identical at any thread count,
/// like the trial columns themselves. Recording happens after the RNG work
/// of a chunk, so the trial outputs are bitwise identical to RunWarsTrials.
/// `registry == nullptr` skips all instrumentation; bench/micro_perf uses
/// that to assert the observed entry point adds <3% when observation is off.
WarsTrialSet RunWarsTrialsObserved(const QuorumConfig& config,
                                   const ReplicaLatencyModelPtr& model,
                                   int trials, uint64_t seed,
                                   bool want_propagation,
                                   ReadFanout read_fanout,
                                   const PbsExecutionOptions& exec,
                                   obs::Registry* registry);

}  // namespace pbs

#endif  // PBS_CORE_WARS_H_
