#include "core/wars.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "dist/production.h"
#include "util/stats.h"

namespace pbs {
namespace {

WarsDistributions Deterministic(double w, double a, double r, double s) {
  WarsDistributions dists;
  dists.name = "deterministic";
  dists.w = PointMass(w);
  dists.a = PointMass(a);
  dists.r = PointMass(r);
  dists.s = PointMass(s);
  return dists;
}

TEST(WarsTrialTest, DeterministicLegsGiveExactLatencies) {
  // w=3, a=2 per replica: every ack lands at 5, so commit (W-th smallest)
  // is 5 regardless of W. r=1, s=4: every read response at 5.
  const auto model = MakeIidModel(Deterministic(3.0, 2.0, 1.0, 4.0), 3);
  for (int w = 1; w <= 3; ++w) {
    WarsSimulator sim({3, 2, w}, model, /*seed=*/1);
    const WarsTrial trial = sim.RunTrial();
    EXPECT_DOUBLE_EQ(trial.write_latency, 5.0);
    EXPECT_DOUBLE_EQ(trial.read_latency, 5.0);
    // Write arrived (w=3) before any read could (commit 5 + r 1 = 6 > 3):
    // consistent immediately.
    EXPECT_DOUBLE_EQ(trial.staleness_threshold, 0.0);
  }
}

TEST(WarsTrialTest, SlowWritePropagationCreatesPositiveThreshold) {
  // Replica receives the write at w=10 but acks instantly... with W=1 and
  // one replica the commit is at w+a. Use N=2, W=1 with heterogeneous legs:
  // model replica 0 fast (w=0) and replica 1 slow (w=10) via a two-point
  // uniform? Simpler: point masses with N=1 degenerate to strictness, so
  // craft N=2 via heterogeneous model.
  WarsDistributions fast = Deterministic(0.0, 0.0, 0.0, 0.0);
  WarsDistributions slow = Deterministic(10.0, 0.0, 5.0, 5.0);
  const auto model = MakeHeterogeneousModel({fast, slow});
  // W=1: commit at 0 via replica 0. R=1: replica 0 responds at 0+0 and is
  // the first responder; it has the write (w=0 <= commit+t+r = 0) -> always
  // consistent.
  WarsSimulator sim_r_fast({2, 1, 1}, model, /*seed=*/2);
  EXPECT_DOUBLE_EQ(sim_r_fast.RunTrial().staleness_threshold, 0.0);

  // Force the read to use only the slow replica: R=2 means both respond and
  // the second (slow) or first... with R=2 the read waits for both, and
  // consistency needs ANY fresh responder; replica 0 is fresh -> 0.
  WarsSimulator sim_r2({2, 2, 1}, model, /*seed=*/3);
  EXPECT_DOUBLE_EQ(sim_r2.RunTrial().staleness_threshold, 0.0);
}

TEST(WarsTrialTest, ThresholdFormulaExactForCraftedCase) {
  // Two replicas; writes reach replica 0 at 0 and replica 1 at 10. Acks are
  // instant, so with W=1 commit time wt=0. Reads: replica 1 responds first
  // (r+s = 1), replica 0 at r+s = 8. With R=1 the only counted responder is
  // replica 1, which is fresh iff wt + t + r >= w  <=>  t >= 10 - 0 - 0.5.
  WarsDistributions fast = Deterministic(0.0, 0.0, 4.0, 4.0);
  WarsDistributions slow = Deterministic(10.0, 0.0, 0.5, 0.5);
  const auto model = MakeHeterogeneousModel({fast, slow});
  WarsSimulator sim({2, 1, 1}, model, /*seed=*/4);
  const WarsTrial trial = sim.RunTrial();
  EXPECT_DOUBLE_EQ(trial.write_latency, 0.0);
  EXPECT_DOUBLE_EQ(trial.read_latency, 1.0);
  EXPECT_DOUBLE_EQ(trial.staleness_threshold, 9.5);
}

TEST(WarsTrialTest, StrictQuorumsAlwaysImmediatelyConsistent) {
  // R + W > N guarantees overlap: the threshold must be 0 in every trial,
  // whatever the latency distributions (the paper: "When R+W>N, this is
  // impossible").
  const auto dists = LnkdDisk();
  for (const QuorumConfig config :
       {QuorumConfig{3, 2, 2}, QuorumConfig{3, 3, 1}, QuorumConfig{3, 1, 3},
        QuorumConfig{5, 3, 3}}) {
    const auto model = MakeIidModel(dists, config.n);
    WarsSimulator sim(config, model, /*seed=*/5);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_DOUBLE_EQ(sim.RunTrial().staleness_threshold, 0.0)
          << config.ToString();
    }
  }
}

TEST(WarsTrialTest, PropagationTimesSortedAndAnchoredAtCommit) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  WarsSimulator sim({3, 1, 2}, model, /*seed=*/6);
  for (int i = 0; i < 2000; ++i) {
    const WarsTrial trial = sim.RunTrial(/*want_propagation=*/true);
    ASSERT_EQ(trial.propagation_times.size(), 3u);
    EXPECT_TRUE(std::is_sorted(trial.propagation_times.begin(),
                               trial.propagation_times.end()));
    // At commit, at least W replicas already received the write (their
    // acks preceded commit), so the W-th propagation time is 0.
    EXPECT_DOUBLE_EQ(trial.propagation_times[1], 0.0);
  }
}

TEST(WarsTrialTest, DeterministicGivenSeed) {
  const auto model = MakeIidModel(Ymmr(), 3);
  WarsSimulator a({3, 1, 1}, model, 77);
  WarsSimulator b({3, 1, 1}, model, 77);
  for (int i = 0; i < 100; ++i) {
    const WarsTrial ta = a.RunTrial();
    const WarsTrial tb = b.RunTrial();
    EXPECT_DOUBLE_EQ(ta.write_latency, tb.write_latency);
    EXPECT_DOUBLE_EQ(ta.read_latency, tb.read_latency);
    EXPECT_DOUBLE_EQ(ta.staleness_threshold, tb.staleness_threshold);
  }
}

TEST(WarsTrialSetTest, ColumnsHaveRequestedLength) {
  const auto model = MakeIidModel(LnkdSsd(), 3);
  const auto set = RunWarsTrials({3, 1, 1}, model, 1234, /*seed=*/8,
                                 /*want_propagation=*/true);
  EXPECT_EQ(set.write_latencies.size(), 1234u);
  EXPECT_EQ(set.read_latencies.size(), 1234u);
  EXPECT_EQ(set.staleness_thresholds.size(), 1234u);
  ASSERT_EQ(set.propagation.size(), 3u);
  EXPECT_EQ(set.propagation[0].size(), 1234u);
}

TEST(WarsLatencyTest, LargerQuorumsAreSlower) {
  // Waiting for more responses can only increase the order statistic.
  const auto model = MakeIidModel(LnkdDisk(), 3);
  double prev_write = 0.0;
  for (int w = 1; w <= 3; ++w) {
    const auto set = RunWarsTrials({3, 1, w}, model, 30000, /*seed=*/9);
    const double mean =
        std::accumulate(set.write_latencies.begin(),
                        set.write_latencies.end(), 0.0) /
        set.write_latencies.size();
    EXPECT_GT(mean, prev_write) << "W=" << w;
    prev_write = mean;
  }
}

TEST(WarsStalenessTest, LongerWriteTailsIncreaseStaleness) {
  // Section 5.3: higher W variance/mean => more reordering => staler.
  const QuorumConfig config{3, 1, 1};
  auto ars = Exponential(1.0);
  double prev_consistent_at_zero = 1.1;
  for (double lambda_w : {4.0, 1.0, 0.1}) {
    const auto model =
        MakeIidModel(MakeWars("sweep", Exponential(lambda_w), ars), 3);
    const auto set = RunWarsTrials(config, model, 50000, /*seed=*/10);
    const int64_t immediate = std::count(set.staleness_thresholds.begin(),
                                         set.staleness_thresholds.end(), 0.0);
    const double p0 =
        static_cast<double>(immediate) / set.staleness_thresholds.size();
    EXPECT_LT(p0, prev_consistent_at_zero) << "lambda_w=" << lambda_w;
    prev_consistent_at_zero = p0;
  }
}

TEST(WanModelTest, RemoteLegsCarryTheDelay) {
  // With point-mass base legs the WAN structure is fully predictable: one
  // replica is local (legs = base), the rest add 75ms per leg.
  const auto base = Deterministic(1.0, 1.0, 1.0, 1.0);
  const auto model = MakeWanModel(base, 3, 75.0);
  Rng rng(11);
  const int n = 3;
  ASSERT_EQ(model->num_replicas(), n);
  std::vector<double> legs(4 * n);  // leg-major: w | a | r | s
  for (int trial = 0; trial < 500; ++trial) {
    model->SampleTrialSoA(rng, legs.data());
    int local_writes = 0;
    int local_reads = 0;
    for (int i = 0; i < n; ++i) {
      const double w = legs[i];
      const double r = legs[2 * n + i];
      EXPECT_TRUE(w == 1.0 || w == 76.0);
      EXPECT_TRUE(r == 1.0 || r == 76.0);
      EXPECT_EQ(w, legs[n + i]);  // same locality for both write legs
      EXPECT_EQ(r, legs[3 * n + i]);
      if (w == 1.0) ++local_writes;
      if (r == 1.0) ++local_reads;
    }
    EXPECT_EQ(local_writes, 1);
    EXPECT_EQ(local_reads, 1);
  }
}

TEST(WanModelTest, ReadAndWriteLocalityAreIndependent) {
  const auto base = Deterministic(1.0, 1.0, 1.0, 1.0);
  const auto model = MakeWanModel(base, 3, 75.0);
  Rng rng(12);
  const int n = 3;
  std::vector<double> legs(4 * n);  // leg-major: w | a | r | s
  int same_locality = 0;
  const int trials = 30000;
  for (int trial = 0; trial < trials; ++trial) {
    model->SampleTrialSoA(rng, legs.data());
    int write_local = -1;
    int read_local = -1;
    for (int i = 0; i < n; ++i) {
      if (legs[i] == 1.0) write_local = i;
      if (legs[2 * n + i] == 1.0) read_local = i;
    }
    if (write_local == read_local) ++same_locality;
  }
  // Independent uniform picks coincide 1/3 of the time.
  EXPECT_NEAR(static_cast<double>(same_locality) / trials, 1.0 / 3.0, 0.01);
}

TEST(ModelDescribeTest, NamesAreInformative) {
  EXPECT_NE(MakeIidModel(LnkdDisk(), 3)->Describe().find("LNKD-DISK"),
            std::string::npos);
  EXPECT_NE(MakeWanModel(WanLocalBase(), 3)->Describe().find("WAN"),
            std::string::npos);
}

}  // namespace
}  // namespace pbs
