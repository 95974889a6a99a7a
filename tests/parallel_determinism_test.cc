// The parallel Monte Carlo engine's headline guarantee: results are a
// function of (seed, chunk_size) only, NEVER of the thread count. These
// tests pin that down by running every parallelized estimator at several
// thread counts and demanding bitwise-identical outputs. A small chunk_size
// is used throughout so even modest trial counts span many chunks (and so
// the serial run exercises the same chunked stream layout).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/quorum_sampler.h"
#include "core/tvisibility.h"
#include "core/wars.h"
#include "dist/primitives.h"
#include "dist/production.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "kvs/rebalance_experiment.h"
#include "util/parallel.h"

namespace pbs {
namespace {

PbsExecutionOptions Exec(int threads) {
  PbsExecutionOptions exec;
  exec.threads = threads;
  exec.chunk_size = 512;
  return exec;
}

// A chaos campaign's fault factory: a seeded random gray-failure mix over
// the three replicas.
std::function<kvs::FaultSchedule(double, uint64_t)> RandomGray(
    double mean_interarrival_ms, double mean_duration_ms) {
  return [=](double horizon_ms, uint64_t seed) {
    return kvs::FaultSchedule::RandomGrayFailures(
        /*num_replicas=*/3, horizon_ms, mean_interarrival_ms,
        mean_duration_ms, seed);
  };
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ULL;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(ParallelDeterminismTest, RunWarsTrialsIsBitwiseThreadCountInvariant) {
  const auto model = MakeIidModel(LnkdSsd(), 3);
  const WarsTrialSet serial = RunWarsTrials(
      {3, 1, 2}, model, 20000, /*seed=*/9, /*want_propagation=*/false,
      ReadFanout::kAllN, Exec(1));
  for (int threads : {2, 4, 8}) {
    const WarsTrialSet parallel = RunWarsTrials(
        {3, 1, 2}, model, 20000, /*seed=*/9, /*want_propagation=*/false,
        ReadFanout::kAllN, Exec(threads));
    // Exact double equality on every column entry: the parallel runs must
    // reproduce the serial draw sequence, not merely agree statistically.
    EXPECT_EQ(parallel.write_latencies, serial.write_latencies);
    EXPECT_EQ(parallel.read_latencies, serial.read_latencies);
    EXPECT_EQ(parallel.staleness_thresholds, serial.staleness_thresholds);
  }
}

TEST(ParallelDeterminismTest, RunWarsTrialsPropagationColumnsInvariant) {
  const auto model = MakeIidModel(LnkdDisk(), 5);
  const WarsTrialSet serial = RunWarsTrials(
      {5, 2, 2}, model, 8000, /*seed=*/10, /*want_propagation=*/true,
      ReadFanout::kAllN, Exec(1));
  const WarsTrialSet parallel = RunWarsTrials(
      {5, 2, 2}, model, 8000, /*seed=*/10, /*want_propagation=*/true,
      ReadFanout::kAllN, Exec(8));
  ASSERT_EQ(serial.propagation.size(), 5u);
  EXPECT_EQ(parallel.propagation, serial.propagation);
}

TEST(ParallelDeterminismTest, QuorumOnlyFanoutInvariant) {
  // kQuorumOnly draws a random R-subset per trial, consuming a different
  // amount of randomness than kAllN — the chunked streams must keep that
  // deterministic too.
  const auto model = MakeIidModel(LnkdSsd(), 5);
  const WarsTrialSet serial = RunWarsTrials(
      {5, 2, 1}, model, 8000, /*seed=*/11, /*want_propagation=*/false,
      ReadFanout::kQuorumOnly, Exec(1));
  const WarsTrialSet parallel = RunWarsTrials(
      {5, 2, 1}, model, 8000, /*seed=*/11, /*want_propagation=*/false,
      ReadFanout::kQuorumOnly, Exec(4));
  EXPECT_EQ(parallel.read_latencies, serial.read_latencies);
  EXPECT_EQ(parallel.staleness_thresholds, serial.staleness_thresholds);
}

TEST(ParallelDeterminismTest, EstimateTVisibilityInvariant) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  const TVisibilityCurve serial =
      EstimateTVisibility({3, 1, 1}, model, 20000, /*seed=*/12, Exec(1));
  const TVisibilityCurve parallel =
      EstimateTVisibility({3, 1, 1}, model, 20000, /*seed=*/12, Exec(8));
  for (double t : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_EQ(parallel.ProbConsistent(t), serial.ProbConsistent(t)) << t;
  }
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(parallel.TimeForConsistency(p), serial.TimeForConsistency(p))
        << p;
  }
}

TEST(ParallelDeterminismTest, QuorumSamplerEstimatesInvariant) {
  // Each estimator call consumes exactly one Split() from the sampler's
  // base RNG regardless of thread count, so a *sequence* of calls must
  // agree across thread counts call by call.
  QuorumSampler serial({5, 2, 2}, /*seed=*/13);
  QuorumSampler parallel({5, 2, 2}, /*seed=*/13);
  EXPECT_EQ(parallel.EstimateMissProbability(30000, Exec(8)),
            serial.EstimateMissProbability(30000, Exec(1)));
  EXPECT_EQ(parallel.EstimateKStaleness(3, 30000, Exec(4)),
            serial.EstimateKStaleness(3, 30000, Exec(1)));
  EXPECT_EQ(parallel.StalenessHistogram(
                8, 20000, QuorumSampler::WritePlacement::kUniformRandom,
                Exec(8)),
            serial.StalenessHistogram(
                8, 20000, QuorumSampler::WritePlacement::kUniformRandom,
                Exec(1)));
  EXPECT_EQ(parallel.StalenessHistogram(
                8, 20000, QuorumSampler::WritePlacement::kRoundRobin,
                Exec(2)),
            serial.StalenessHistogram(
                8, 20000, QuorumSampler::WritePlacement::kRoundRobin,
                Exec(1)));
}

TEST(ParallelDeterminismTest, EstimateKTStalenessInvariant) {
  const auto model = MakeIidModel(LnkdSsd(), 3);
  const KTStalenessResult serial = EstimateKTStaleness(
      {3, 1, 1}, model, Exponential(0.1), /*t=*/1.0, /*history=*/20,
      /*trials=*/10000, /*seed=*/14, Exec(1));
  for (int threads : {2, 8}) {
    const KTStalenessResult parallel = EstimateKTStaleness(
        {3, 1, 1}, model, Exponential(0.1), /*t=*/1.0, /*history=*/20,
        /*trials=*/10000, /*seed=*/14, Exec(threads));
    EXPECT_EQ(parallel.histogram, serial.histogram);
  }
}

TEST(ParallelDeterminismTest, ChunkSizeIsPartOfTheContract) {
  // Changing chunk_size legitimately changes the draws (different stream
  // layout); this documents that the determinism contract is (seed,
  // chunk_size), not seed alone. Both runs remain valid estimates.
  const auto model = MakeIidModel(LnkdSsd(), 3);
  PbsExecutionOptions coarse = Exec(1);
  coarse.chunk_size = 1 << 20;  // one chunk: the pre-parallel layout
  const WarsTrialSet a = RunWarsTrials({3, 1, 1}, model, 4096, /*seed=*/15,
                                       false, ReadFanout::kAllN, coarse);
  const WarsTrialSet b = RunWarsTrials({3, 1, 1}, model, 4096, /*seed=*/15,
                                       false, ReadFanout::kAllN, Exec(1));
  EXPECT_NE(a.staleness_thresholds, b.staleness_thresholds);
  // Statistically they still agree: medians within Monte Carlo noise.
  std::vector<double> sa = a.staleness_thresholds;
  std::vector<double> sb = b.staleness_thresholds;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_NEAR(sa[sa.size() / 2], sb[sb.size() / 2], 0.5);
}

TEST(ParallelDeterminismTest, ChaosTrialsInvariant) {
  // The chaos campaign is the stress case for the (seed, chunk_size)
  // contract: each trial builds its own cluster, injects a seeded random
  // gray-fault schedule, hedges reads and retries client operations — all
  // of that must be bitwise identical at 1 vs N threads, down to the exact
  // counter values and latency quantiles in every per-trial summary.
  kvs::CampaignOptions options;
  options.trials = 4;
  options.seed = 404;
  options.experiment.writes = 300;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, 10.0};
  options.experiment.cluster.quorum = {3, 2, 2};
  options.experiment.cluster.legs = LnkdSsd();
  options.experiment.cluster.request_timeout_ms = 200.0;
  options.experiment.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.experiment.cluster.hedge.enabled = true;
  options.experiment.cluster.hedge.quantile = 0.99;
  options.experiment.cluster.retry.max_attempts = 3;
  options.experiment.cluster.retry.backoff_base_ms = 5.0;
  options.experiment.cluster.retry.deadline_ms = 150.0;
  options.faults = RandomGray(2000.0, 800.0);

  const kvs::CampaignResult serial = kvs::RunCampaign(options, Exec(1));
  ASSERT_EQ(serial.trials.size(), 4u);
  EXPECT_GT(serial.pooled.fault_activations, 0);
  EXPECT_GT(serial.pooled.reads_started, 0);
  EXPECT_EQ(serial.pooled.monotonic_read_violations, 0);
  // Golden pins: the exact output of seed 404. The thread-count checks
  // below cannot see a change in what a seed produces; these can. Re-pin
  // only with a stated reason.
  const kvs::ChaosSummary& pooled = serial.pooled;
  EXPECT_EQ(Fnv1a(serial.metrics_jsonl), 0x88adfb67bfb577aeULL);
  EXPECT_EQ(pooled.reads_started, 2400);
  EXPECT_EQ(pooled.reads_failed, 0);
  EXPECT_EQ(pooled.writes_started, 1200);
  EXPECT_EQ(pooled.writes_failed, 0);
  EXPECT_EQ(pooled.hedged_reads_sent, 324);
  EXPECT_EQ(pooled.hedged_reads_won, 55);
  EXPECT_EQ(pooled.duplicate_responses_suppressed, 10);
  EXPECT_EQ(pooled.fault_activations, 35);
  EXPECT_EQ(pooled.probe_trials, (std::vector<int64_t>{1200, 1200}));
  EXPECT_EQ(pooled.probe_consistent, (std::vector<int64_t>{1200, 1200}));
  for (int threads : {4, 8}) {
    const kvs::CampaignResult parallel =
        kvs::RunCampaign(options, Exec(threads));
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ChaosTrialsFaultFreeBaselineInvariant) {
  // No fault factory: the fault-free baseline arm must satisfy the same
  // contract (and draw nothing from the fault layer).
  kvs::CampaignOptions options;
  options.trials = 3;
  options.seed = 405;
  options.experiment.writes = 200;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, 10.0};
  options.experiment.cluster.quorum = {3, 2, 2};
  options.experiment.cluster.legs = LnkdSsd();
  options.experiment.cluster.request_timeout_ms = 200.0;

  const kvs::CampaignResult serial = kvs::RunCampaign(options, Exec(1));
  EXPECT_EQ(serial.pooled.fault_activations, 0);
  const kvs::CampaignResult parallel = kvs::RunCampaign(options, Exec(8));
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelDeterminismTest, RebalanceTrialsInvariant) {
  // Elastic-membership campaigns: every trial runs concurrent join +
  // removal under load — ring rebuilds, migration streams, union routing,
  // per-shard staleness attribution. All of it must be bitwise identical
  // at 1 vs N threads, down to the per-phase probe counters, the merged
  // metrics JSONL, and the zero-lost-acked-writes tally.
  kvs::RebalanceTrialOptions options;
  options.trials = 3;
  options.seed = 515;
  options.run.cluster.quorum = {3, 2, 2};
  options.run.cluster.legs = LnkdSsd();
  options.run.cluster.num_storage_nodes = 8;
  options.run.cluster.vnodes_per_node = 16;
  options.run.cluster.request_timeout_ms = 200.0;
  options.run.keys = 32;
  options.run.writes = 160;
  options.run.write_spacing_ms = 5.0;
  options.run.join_nodes = 1;
  options.run.remove_nodes = 1;

  const kvs::RebalanceCampaignResult serial =
      kvs::RunRebalanceTrials(options, Exec(1));
  ASSERT_EQ(serial.trials.size(), 3u);
  EXPECT_EQ(serial.lost_acked_writes, 0);
  EXPECT_GT(serial.before.reads, 0);
  for (int threads : {4, 8}) {
    const kvs::RebalanceCampaignResult parallel =
        kvs::RunRebalanceTrials(options, Exec(threads));
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ConcurrentChaosAndRebalanceCampaignsInvariant) {
  // Stress composition: a gray-fault chaos campaign and an elastic
  // rebalance campaign running *at the same time* on the shared worker
  // pool, each parallelized. Interleaving on the pool must not leak into
  // either campaign's results — both stay bitwise equal to their serial
  // baselines at every thread count.
  kvs::CampaignOptions chaos;
  chaos.trials = 3;
  chaos.seed = 707;
  chaos.experiment.writes = 200;
  chaos.experiment.write_spacing_ms = 50.0;
  chaos.experiment.read_offsets_ms = {1.0, 10.0};
  chaos.experiment.cluster.quorum = {3, 2, 2};
  chaos.experiment.cluster.legs = LnkdSsd();
  chaos.experiment.cluster.request_timeout_ms = 200.0;
  chaos.experiment.cluster.hedge.enabled = true;
  chaos.faults = RandomGray(2000.0, 800.0);

  kvs::RebalanceTrialOptions rebalance;
  rebalance.trials = 2;
  rebalance.seed = 717;
  rebalance.run.cluster.quorum = {3, 2, 2};
  rebalance.run.cluster.legs = LnkdSsd();
  rebalance.run.cluster.num_storage_nodes = 8;
  rebalance.run.cluster.vnodes_per_node = 16;
  rebalance.run.cluster.request_timeout_ms = 200.0;
  rebalance.run.keys = 24;
  rebalance.run.writes = 120;
  rebalance.run.write_spacing_ms = 5.0;
  rebalance.run.join_nodes = 1;
  rebalance.run.remove_nodes = 1;

  const kvs::CampaignResult chaos_serial = kvs::RunCampaign(chaos, Exec(1));
  const kvs::RebalanceCampaignResult rebalance_serial =
      kvs::RunRebalanceTrials(rebalance, Exec(1));
  EXPECT_EQ(rebalance_serial.lost_acked_writes, 0);

  for (int threads : {1, 4, 8}) {
    kvs::CampaignResult chaos_result;
    kvs::RebalanceCampaignResult rebalance_result;
    std::thread chaos_thread([&]() {
      chaos_result = kvs::RunCampaign(chaos, Exec(threads));
    });
    std::thread rebalance_thread([&]() {
      rebalance_result = kvs::RunRebalanceTrials(rebalance, Exec(threads));
    });
    chaos_thread.join();
    rebalance_thread.join();
    EXPECT_EQ(chaos_result, chaos_serial) << threads << " threads";
    EXPECT_EQ(rebalance_result, rebalance_serial) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, ControllerCampaignInvariant) {
  // The full closed control loop under chaos: every trial runs the
  // ConsistencyController inside the cluster — sensing measured legs,
  // re-running the WARS predictor, actuating quorum/hedge/retry steps,
  // rolling back on measured violations — while a deterministic
  // FaultSchedule degrades one replica and flaps another. The *decision
  // stream itself* is part of the contract: per-trial decision digests,
  // step/rollback counts, final knob states and the pooled campaign digest
  // must be bitwise identical at 1, 4 and 8 threads.
  kvs::CampaignOptions options;
  options.trials = 3;
  options.seed = 808;
  options.experiment.writes = 300;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, 10.0};
  options.experiment.cluster.quorum = {3, 1, 2};
  options.experiment.cluster.legs = LnkdDisk();
  options.experiment.cluster.request_timeout_ms = 200.0;
  options.experiment.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.experiment.cluster.sla =
      SlaTarget::Parse("p=0.9,t=10,p99<=8").value();
  options.experiment.cluster.controller.enabled = true;
  options.experiment.cluster.controller.epoch_ms = 500.0;
  options.experiment.cluster.controller.trials_per_eval = 300;
  options.experiment.cluster.controller.min_leg_samples = 48;
  options.faults = [](double horizon_ms, uint64_t seed) {
    kvs::FaultSchedule faults;
    // Chaos mix: a 20x slow replica for the whole run plus a flapping
    // node, phased by the trial's fault seed so trials differ.
    faults.AddSlowNode(0.0, horizon_ms, /*node=*/0, /*delay_mult=*/20.0);
    faults.AddFlappingNode(100.0 + static_cast<double>(seed % 7) * 50.0,
                           horizon_ms, /*node=*/1, /*up_ms=*/300.0,
                           /*down_ms=*/200.0);
    return faults;
  };

  const kvs::CampaignResult serial = kvs::RunCampaign(options, Exec(1));
  ASSERT_EQ(serial.trials.size(), 3u);
  EXPECT_NE(serial.pooled_digest, 0u);
  EXPECT_GT(serial.pooled.reads_started, 0);
  int64_t decisions = 0;
  for (const kvs::CampaignTrialSummary& trial : serial.trials) {
    decisions += trial.decisions;
    EXPECT_NE(trial.decision_digest, 0u);
  }
  EXPECT_GT(decisions, 0);
  // Golden pins: the exact output of seed 808, decision digest and merged
  // metrics JSONL included. Re-pin only with a stated reason.
  const kvs::ChaosSummary& pooled = serial.pooled;
  EXPECT_EQ(serial.pooled_digest, 0xb846689bd702f78dULL);
  EXPECT_EQ(Fnv1a(serial.metrics_jsonl), 0x811774e440627977ULL);
  EXPECT_EQ(pooled.reads_started, 1758);
  EXPECT_EQ(pooled.reads_failed, 4);
  EXPECT_EQ(pooled.writes_started, 948);
  EXPECT_EQ(pooled.writes_failed, 69);
  EXPECT_EQ(pooled.hedged_reads_sent, 1466);
  EXPECT_EQ(pooled.hedged_reads_won, 720);
  EXPECT_EQ(pooled.client_write_retries, 48);
  EXPECT_EQ(pooled.monotonic_read_violations, 17);
  EXPECT_EQ(pooled.fault_activations, 6);
  EXPECT_EQ(pooled.probe_trials, (std::vector<int64_t>{877, 877}));
  EXPECT_EQ(pooled.probe_consistent, (std::vector<int64_t>{788, 863}));
  for (int threads : {4, 8}) {
    const kvs::CampaignResult parallel =
        kvs::RunCampaign(options, Exec(threads));
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, TelemetryCampaignInvariant) {
  // Streaming telemetry riding the controller campaign: every trial cuts
  // windowed registry deltas off the timer wheel and runs the live drift
  // monitor (analytic refits included). The composed telemetry JSONL is
  // digested per trial and pooled; both digests — and the monitor's
  // window/alert counts — must be bitwise identical at 1, 4 and 8 threads.
  kvs::CampaignOptions options;
  options.trials = 3;
  options.seed = 909;
  options.experiment.writes = 300;
  options.experiment.write_spacing_ms = 50.0;
  options.experiment.read_offsets_ms = {1.0, 10.0};
  options.experiment.cluster.quorum = {3, 1, 2};
  options.experiment.cluster.legs = LnkdDisk();
  options.experiment.cluster.request_timeout_ms = 200.0;
  options.experiment.cluster.read_fanout = ReadFanout::kQuorumOnly;
  options.experiment.cluster.sla =
      SlaTarget::Parse("p=0.9,t=10,p99<=8").value();
  options.experiment.cluster.controller.enabled = true;
  options.experiment.cluster.controller.epoch_ms = 500.0;
  options.experiment.cluster.controller.trials_per_eval = 300;
  options.experiment.cluster.controller.min_leg_samples = 48;
  options.experiment.cluster.obs.telemetry_window_ms = 500.0;
  options.experiment.cluster.obs.monitor_enabled = true;
  options.faults = [](double horizon_ms, uint64_t seed) {
    kvs::FaultSchedule faults;
    faults.AddSlowNode(horizon_ms * 0.5, horizon_ms, /*node=*/0,
                       /*delay_mult=*/10.0);
    (void)seed;
    return faults;
  };

  const kvs::CampaignResult serial = kvs::RunCampaign(options, Exec(1));
  ASSERT_EQ(serial.trials.size(), 3u);
  EXPECT_NE(serial.pooled_telemetry_digest, 0u);
  int64_t windows = 0;
  for (const kvs::CampaignTrialSummary& trial : serial.trials) {
    EXPECT_NE(trial.telemetry_digest, 0u);
    windows += trial.monitor_windows;
  }
  EXPECT_GT(windows, 0);
  for (int threads : {4, 8}) {
    const kvs::CampaignResult parallel =
        kvs::RunCampaign(options, Exec(threads));
    EXPECT_EQ(parallel, serial) << threads << " threads";
    EXPECT_EQ(parallel.pooled_telemetry_digest,
              serial.pooled_telemetry_digest)
        << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, DefaultThreadsMatchesSerial) {
  // threads = 0 (all hardware threads) must also reproduce the serial run —
  // this is the configuration every caller gets by default.
  const auto model = MakeIidModel(LnkdDisk(), 3);
  const WarsTrialSet serial = RunWarsTrials(
      {3, 2, 1}, model, 10000, /*seed=*/16, false, ReadFanout::kAllN,
      Exec(1));
  const WarsTrialSet defaulted = RunWarsTrials(
      {3, 2, 1}, model, 10000, /*seed=*/16, false, ReadFanout::kAllN,
      Exec(0));
  EXPECT_EQ(defaulted.staleness_thresholds, serial.staleness_thresholds);
}

}  // namespace
}  // namespace pbs
