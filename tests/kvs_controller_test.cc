// Closed-loop consistency controller: SLA declaration and parsing, mixed
// (McKenzie-style fractional) quorum evaluation, the cluster-side knob
// surface the controller actuates, and the controller's epoch loop
// end-to-end — decisions recorded, history audit-joinable, digest and
// campaign results bitwise reproducible.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "dist/production.h"
#include "kvs/cluster.h"
#include "kvs/controller.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "kvs/options.h"
#include "util/stats.h"

namespace pbs {
namespace kvs {
namespace {

// ---------------------------------------------------------------- SlaTarget

TEST(SlaTargetTest, ParsesClausesInAnyOrder) {
  const StatusOr<SlaTarget> parsed = SlaTarget::Parse("p=0.999,t=10,p99<=15");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed.value().fresh_probability, 0.999);
  EXPECT_DOUBLE_EQ(parsed.value().staleness_bound_ms, 10.0);
  EXPECT_DOUBLE_EQ(parsed.value().read_p99_ms, 15.0);

  const StatusOr<SlaTarget> reordered =
      SlaTarget::Parse("p99<=15,t=10,p=0.999");
  ASSERT_TRUE(reordered.ok());
  EXPECT_EQ(parsed.value(), reordered.value());
}

TEST(SlaTargetTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(SlaTarget::Parse("").ok());
  EXPECT_FALSE(SlaTarget::Parse("p=0.999,t=10").ok());  // missing p99
  EXPECT_FALSE(SlaTarget::Parse("p=0.999,p99<=15").ok());  // missing t
  EXPECT_FALSE(SlaTarget::Parse("p=nan,t=10,p99<=15").ok());
  EXPECT_FALSE(SlaTarget::Parse("p=0.999,t=10,p99<=15,bogus=1").ok());
  EXPECT_FALSE(SlaTarget::Parse("p=1.5,t=10,p99<=15").ok());  // p not in (0,1)
  EXPECT_FALSE(SlaTarget::Parse("p=0.9,t=-1,p99<=15").ok());
  EXPECT_FALSE(SlaTarget::Parse("p=0.9,t=10,p99<=0").ok());
}

TEST(SlaTargetTest, DisabledTargetValidates) {
  const SlaTarget none;
  EXPECT_FALSE(none.enabled());
  EXPECT_TRUE(none.Validate().ok());
}

// -------------------------------------------------------------- MixedQuorum

TEST(MixedQuorumTest, MixtureQuantileMatchesComponentsAtTheExtremes) {
  const std::vector<double> lo = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> hi = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(MixtureQuantileSorted(lo, 1.0, hi, 0.0, 0.5),
                   MixtureQuantileSorted(lo, 1.0, {}, 0.0, 0.5));
  // A zero-weight component is ignored: pure-hi delegates to the plain
  // (interpolating) component quantile.
  EXPECT_DOUBLE_EQ(MixtureQuantileSorted(lo, 0.0, hi, 1.0, 0.99),
                   QuantileSorted(hi, 0.99));
  // 50/50: the median of the merged mass sits between the components.
  const double mid = MixtureQuantileSorted(lo, 0.5, hi, 0.5, 0.5);
  EXPECT_GE(mid, 4.0);
  EXPECT_LE(mid, 10.0);
  // The mixture p99 is dominated by the slow component.
  EXPECT_DOUBLE_EQ(MixtureQuantileSorted(lo, 0.5, hi, 0.5, 0.999), 40.0);
}

TEST(MixedQuorumTest, EvaluationInterpolatesBetweenFixedQuorums) {
  SlaTarget sla;
  sla.fresh_probability = 0.9;
  sla.staleness_bound_ms = 10.0;
  sla.read_p99_ms = 1000.0;
  const ReplicaLatencyModelPtr model = MakeIidModel(LnkdDisk(), 3);
  const int trials = 20000;
  const uint64_t seed = 11;

  const MixedQuorum r1{3, 1, 1, 2, 0.0};
  const MixedQuorum r2{3, 2, 2, 2, 0.0};
  const MixedQuorum mixed{3, 1, 2, 2, 0.5};
  ASSERT_TRUE(mixed.IsValid());
  ASSERT_TRUE(mixed.mixing());

  const MixedQuorumEvaluation e1 = EvaluateMixedQuorum(
      r1, sla, model, trials, seed, ReadFanout::kQuorumOnly);
  const MixedQuorumEvaluation e2 = EvaluateMixedQuorum(
      r2, sla, model, trials, seed, ReadFanout::kQuorumOnly);
  const MixedQuorumEvaluation em = EvaluateMixedQuorum(
      mixed, sla, model, trials, seed, ReadFanout::kQuorumOnly);

  // Reading more replicas is monotonically fresher.
  EXPECT_GT(e2.fresh_probability, e1.fresh_probability);
  // The 50/50 mix lands strictly between the pure arms on freshness and
  // between (or at) them on latency.
  EXPECT_GT(em.fresh_probability, e1.fresh_probability);
  EXPECT_LT(em.fresh_probability, e2.fresh_probability);
  EXPECT_GE(em.read_p99_ms, e1.read_p99_ms);
  EXPECT_LE(em.read_p99_ms, e2.read_p99_ms + 1e-9);
}

TEST(MixedQuorumTest, EvaluationIsDeterministicGivenTheSeed) {
  SlaTarget sla;
  sla.fresh_probability = 0.95;
  sla.staleness_bound_ms = 5.0;
  sla.read_p99_ms = 50.0;
  const ReplicaLatencyModelPtr model = MakeIidModel(LnkdSsd(), 3);
  const MixedQuorum mixed{3, 1, 2, 2, 0.25};
  const MixedQuorumEvaluation a = EvaluateMixedQuorum(
      mixed, sla, model, 5000, 42, ReadFanout::kAllN);
  const MixedQuorumEvaluation b = EvaluateMixedQuorum(
      mixed, sla, model, 5000, 42, ReadFanout::kAllN);
  EXPECT_EQ(a.fresh_probability, b.fresh_probability);
  EXPECT_EQ(a.read_p99_ms, b.read_p99_ms);
  EXPECT_EQ(a.write_p99_ms, b.write_p99_ms);
  EXPECT_EQ(a.feasible, b.feasible);
}

// -------------------------------------------------- ControllerOptions/config

TEST(ControllerOptionsTest, ValidatesRanges) {
  ControllerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.epoch_ms = 0.0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ControllerOptionsTest, EnabledControllerRequiresAnSla) {
  KvsConfig config;
  config.legs = LnkdSsd();
  config.controller.enabled = true;
  EXPECT_FALSE(config.Validate().ok());
  ASSERT_TRUE(
      SlaTarget::Parse("p=0.9,t=10,p99<=50").ok());
  config.sla = SlaTarget::Parse("p=0.9,t=10,p99<=50").value();
  EXPECT_TRUE(config.Validate().ok());
}

// ------------------------------------------------------- cluster knob surface

KvsConfig ControllerConfig() {
  KvsConfig config;
  config.quorum = {3, 1, 2};
  config.legs = LnkdDisk();
  config.read_fanout = ReadFanout::kQuorumOnly;
  config.request_timeout_ms = 200.0;
  config.sla = SlaTarget::Parse("p=0.9,t=10,p99<=50").value();
  config.controller.enabled = true;
  config.controller.epoch_ms = 500.0;
  config.controller.trials_per_eval = 300;
  config.controller.min_leg_samples = 32;
  config.seed = 7;
  return config;
}

TEST(ClusterKnobTest, UpdateReadMixValidatesAndDegenerates) {
  Cluster cluster(ControllerConfig());
  EXPECT_FALSE(cluster.UpdateReadMix(0, 2, 0.5).ok());   // r_lo < 1
  EXPECT_FALSE(cluster.UpdateReadMix(2, 1, 0.5).ok());   // r_lo > r_hi
  EXPECT_FALSE(cluster.UpdateReadMix(1, 4, 0.5).ok());   // r_hi > n
  EXPECT_FALSE(cluster.UpdateReadMix(1, 2, -0.1).ok());  // p out of range
  EXPECT_FALSE(cluster.UpdateReadMix(1, 2, 1.1).ok());

  ASSERT_TRUE(cluster.UpdateReadMix(1, 2, 0.25).ok());
  EXPECT_TRUE(cluster.read_mix().mixing());
  // Degenerate probabilities collapse to a fixed quorum.
  ASSERT_TRUE(cluster.UpdateReadMix(1, 2, 1.0).ok());
  EXPECT_FALSE(cluster.read_mix().mixing());
  EXPECT_EQ(cluster.config().quorum.r, 1);
  ASSERT_TRUE(cluster.UpdateReadMix(1, 2, 0.0).ok());
  EXPECT_FALSE(cluster.read_mix().mixing());
  EXPECT_EQ(cluster.config().quorum.r, 2);
}

TEST(ClusterKnobTest, EffectiveReadQuorumMixesPerRead) {
  Cluster cluster(ControllerConfig());
  ASSERT_TRUE(cluster.UpdateReadMix(1, 2, 0.5).ok());
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(cluster.EffectiveReadQuorumFor(i));
  EXPECT_EQ(seen, (std::set<int>{1, 2}));
  EXPECT_GT(cluster.metrics().mixed_reads_lo, 0);
  EXPECT_GT(cluster.metrics().mixed_reads_hi, 0);
  const int64_t lo = cluster.metrics().mixed_reads_lo;
  const int64_t hi = cluster.metrics().mixed_reads_hi;
  // ~50/50 split over 200 draws (binomial: 3+ σ of slack).
  EXPECT_GT(lo, 60);
  EXPECT_GT(hi, 60);
  EXPECT_EQ(lo + hi, 200);
}

TEST(ClusterKnobTest, FreshnessLedgerClassifiesAgainstTheBound) {
  KvsConfig config = ControllerConfig();
  config.sla.staleness_bound_ms = 10.0;
  Cluster cluster(config);
  // Key 5, version 2 committed at t=100. A read started at t=105 that
  // returns version 1 is within the bound (the newer commit is only 5ms
  // old); a read started at t=150 returning version 1 is stale.
  cluster.RecordCommit(5, /*sequence=*/2, /*commit_time=*/100.0);
  const ClusterMetrics& metrics = cluster.metrics();
  cluster.RecordReadOutcome(5, /*returned_sequence=*/1,
                            /*read_start_time=*/105.0);
  EXPECT_EQ(metrics.reads_fresh_measured, 1);
  EXPECT_EQ(metrics.reads_stale_measured, 0);
  cluster.RecordReadOutcome(5, /*returned_sequence=*/1,
                            /*read_start_time=*/150.0);
  EXPECT_EQ(metrics.reads_stale_measured, 1);
  // Reading the committed (or newer) version is always fresh.
  cluster.RecordReadOutcome(5, /*returned_sequence=*/2,
                            /*read_start_time=*/150.0);
  EXPECT_EQ(metrics.reads_fresh_measured, 2);
  EXPECT_EQ(metrics.reads_stale_measured, 1);
}

// ------------------------------------------------------- controller end-to-end

StalenessExperimentOptions ControllerExperiment() {
  StalenessExperimentOptions options;
  options.cluster = ControllerConfig();
  options.writes = 200;
  options.write_spacing_ms = 50.0;
  options.read_offsets_ms = {1.0, 10.0, 50.0};
  options.seed = 99;
  return options;
}

TEST(ControllerTest, EpochLoopRecordsDecisionsAndHistory) {
  const StalenessExperimentResult result =
      RunStalenessExperiment(ControllerExperiment());
  EXPECT_GT(result.final_metrics.controller_epochs, 5);
  ASSERT_FALSE(result.controller_decisions.empty());
  ASSERT_FALSE(result.controller_history.empty());
  EXPECT_NE(result.controller_digest, 0u);

  // Decision ids are dense and 1-based; epochs are monotone.
  int64_t expected_id = 1;
  double last_time = -1.0;
  for (const ConsistencyController::Decision& d :
       result.controller_decisions) {
    EXPECT_EQ(d.id, expected_id++);
    EXPECT_GE(d.time_ms, last_time);
    last_time = d.time_ms;
    EXPECT_FALSE(d.action.empty());
    EXPECT_TRUE(d.quorum.IsValid()) << d.action;
  }
  // History: record 0 is the initial config; valid_from is monotone, every
  // later record maps to an actuated decision.
  EXPECT_EQ(result.controller_history.front().decision_id, 0);
  double last_from = -1.0;
  for (const obs::AdaptationRecord& record : result.controller_history) {
    EXPECT_GT(record.valid_from_ms, last_from);
    last_from = record.valid_from_ms;
    EXPECT_GE(record.r_lo, 1);
    EXPECT_LE(record.r_lo, record.r_hi);
    EXPECT_GE(record.w, 1);
  }
  // Measured-freshness plumbing reached the metrics.
  EXPECT_GT(result.final_metrics.reads_fresh_measured +
                result.final_metrics.reads_stale_measured,
            0);
}

TEST(ControllerTest, RunsAreBitwiseReproducible) {
  const StalenessExperimentResult a =
      RunStalenessExperiment(ControllerExperiment());
  const StalenessExperimentResult b =
      RunStalenessExperiment(ControllerExperiment());
  ASSERT_EQ(a.controller_decisions.size(), b.controller_decisions.size());
  for (size_t i = 0; i < a.controller_decisions.size(); ++i) {
    EXPECT_EQ(a.controller_decisions[i], b.controller_decisions[i]) << i;
  }
  EXPECT_EQ(a.controller_digest, b.controller_digest);
}

TEST(ControllerTest, ControllerOffLeavesTheRunUntouched) {
  // RNG-consumption contract: enabling the feature must not perturb a
  // feature-off run — and a controller-off run must reproduce the
  // pre-feature draw sequences (no controller objects, no decisions).
  StalenessExperimentOptions options = ControllerExperiment();
  options.cluster.controller.enabled = false;
  const StalenessExperimentResult result = RunStalenessExperiment(options);
  EXPECT_TRUE(result.controller_decisions.empty());
  EXPECT_TRUE(result.controller_history.empty());
  EXPECT_EQ(result.controller_digest, 0u);
  EXPECT_EQ(result.final_metrics.controller_epochs, 0);
}

TEST(ControllerTest, HedgesOnWhenASlowReplicaBlowsTheLatencyBudget) {
  // The bench/pcap headline in miniature: a 20x slow replica under
  // kQuorumOnly. The measured p99 (or outright read failures) must drive
  // the tail-relief ladder: hedging on, never trading staleness for it.
  StalenessExperimentOptions options = ControllerExperiment();
  options.cluster.sla = SlaTarget::Parse("p=0.9,t=10,p99<=8").value();
  FaultSchedule faults;
  faults.AddSlowNode(0.0, 20000.0, /*node=*/0, /*delay_mult=*/20.0);
  const StalenessExperimentResult result =
      RunStalenessExperimentWithFaults(options, faults);
  ASSERT_FALSE(result.controller_history.empty());
  EXPECT_TRUE(result.controller_history.back().hedge_enabled);
  bool saw_hedge_on = false;
  for (const ConsistencyController::Decision& d :
       result.controller_decisions) {
    if (d.action == "hedge_on") saw_hedge_on = true;
    // Guarded actuation: no decision both widens the staleness exposure
    // (lower r_lo/r_hi or mix shifted toward the low arm) and loosens the
    // latency protections in the same step — every action is one knob.
    EXPECT_NE(d.action, "");
  }
  EXPECT_TRUE(saw_hedge_on);
  EXPECT_GT(result.final_metrics.controller_steps, 0);
}

// ------------------------------------------------------- campaign determinism

TEST(ControllerCampaignTest, StaticBaselineRunsWithControllerDisabled) {
  CampaignOptions options;
  options.experiment = ControllerExperiment();
  options.experiment.cluster.controller.enabled = false;
  options.experiment.writes = 100;
  options.trials = 2;
  options.seed = 5;
  const CampaignResult result = RunCampaign(options, PbsExecutionOptions{});
  ASSERT_EQ(result.trials.size(), 2u);
  EXPECT_GT(result.pooled.reads_started, 0);
  for (const CampaignTrialSummary& trial : result.trials) {
    EXPECT_EQ(trial.decision_digest, 0u);
    EXPECT_EQ(trial.decisions, 0);
  }
}

TEST(ControllerCampaignTest, FaultFactoryDoesNotPerturbTheWorkloadStream) {
  // RunCampaign draws workload and fault seeds per trial whether or not a
  // fault factory is installed, so adding an *empty* schedule via the
  // factory reproduces the fault-free campaign bitwise.
  CampaignOptions options;
  options.experiment = ControllerExperiment();
  options.experiment.writes = 100;
  options.trials = 2;
  options.seed = 17;
  const CampaignResult without = RunCampaign(options, PbsExecutionOptions{});
  options.faults = [](double, uint64_t) { return FaultSchedule(); };
  const CampaignResult with_empty =
      RunCampaign(options, PbsExecutionOptions{});
  EXPECT_EQ(without, with_empty);
}

// ------------------------------------------------------- predictor backends

TEST(ControllerBackendTest, ExplicitMonteCarloMatchesTheDefault) {
  // The backend knob defaults to kMonteCarlo; spelling it out — and moving
  // the (unused) analytic grid knobs — must not perturb decision streams
  // or digests. This is the compatibility half of the DESIGN.md §12
  // contract.
  const StalenessExperimentResult baseline =
      RunStalenessExperiment(ControllerExperiment());
  StalenessExperimentOptions options = ControllerExperiment();
  options.cluster.controller.backend = PredictorBackend::kMonteCarlo;
  options.cluster.controller.grid_bins = 2000;
  options.cluster.controller.grid_max_ms = 700.0;
  options.cluster.controller.grid_auto_max = false;
  const StalenessExperimentResult explicit_mc = RunStalenessExperiment(options);
  ASSERT_EQ(explicit_mc.controller_decisions.size(),
            baseline.controller_decisions.size());
  for (size_t i = 0; i < baseline.controller_decisions.size(); ++i) {
    EXPECT_EQ(explicit_mc.controller_decisions[i],
              baseline.controller_decisions[i])
        << i;
  }
  EXPECT_EQ(explicit_mc.controller_digest, baseline.controller_digest);
}

TEST(ControllerBackendTest, AnalyticRunsAreBitwiseReproducible) {
  StalenessExperimentOptions options = ControllerExperiment();
  options.cluster.controller.backend = PredictorBackend::kAnalytic;
  const StalenessExperimentResult a = RunStalenessExperiment(options);
  const StalenessExperimentResult b = RunStalenessExperiment(options);
  EXPECT_GT(a.final_metrics.controller_epochs, 5);
  ASSERT_FALSE(a.controller_decisions.empty());
  ASSERT_EQ(a.controller_decisions.size(), b.controller_decisions.size());
  for (size_t i = 0; i < a.controller_decisions.size(); ++i) {
    EXPECT_EQ(a.controller_decisions[i], b.controller_decisions[i]) << i;
  }
  EXPECT_EQ(a.controller_digest, b.controller_digest);
}

TEST(ControllerBackendTest, AutoBackendRunsTheEpochLoop) {
  StalenessExperimentOptions options = ControllerExperiment();
  options.cluster.controller.backend = PredictorBackend::kAuto;
  const StalenessExperimentResult result = RunStalenessExperiment(options);
  EXPECT_GT(result.final_metrics.controller_epochs, 5);
  EXPECT_FALSE(result.controller_decisions.empty());
  EXPECT_NE(result.controller_digest, 0u);
}

TEST(ControllerBackendTest, AnalyticCampaignIsThreadCountDeterministic) {
  // The acceptance pin: kAnalytic controller campaigns (no RNG in the
  // per-epoch evaluator at all) reproduce bitwise at 1, 4 and 8 threads,
  // exactly like the Monte Carlo pin in parallel_determinism_test.
  CampaignOptions options;
  options.experiment = ControllerExperiment();
  options.experiment.writes = 150;
  options.experiment.cluster.controller.backend = PredictorBackend::kAnalytic;
  options.trials = 3;
  options.seed = 606;
  PbsExecutionOptions serial_exec;
  serial_exec.threads = 1;
  const CampaignResult serial = RunCampaign(options, serial_exec);
  ASSERT_EQ(serial.trials.size(), 3u);
  EXPECT_NE(serial.pooled_digest, 0u);
  for (int threads : {4, 8}) {
    PbsExecutionOptions exec;
    exec.threads = threads;
    const CampaignResult parallel = RunCampaign(options, exec);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
