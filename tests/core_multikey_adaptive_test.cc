#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/closed_form.h"
#include "core/multikey.h"
#include "core/sla.h"
#include "dist/primitives.h"
#include "dist/production.h"

namespace pbs {
namespace {

TEST(MultiKeyTest, SingleKeyReducesToKFreshness) {
  const QuorumConfig config{3, 1, 1};
  EXPECT_DOUBLE_EQ(MultiKeyFreshnessProbability(config, 1, 2),
                   KFreshnessProbability(config, 2));
}

TEST(MultiKeyTest, ProbabilitiesMultiplyAcrossKeys) {
  const QuorumConfig config{3, 2, 1};
  const double one = KFreshnessProbability(config, 1);
  EXPECT_NEAR(MultiKeyFreshnessProbability(config, 4, 1), std::pow(one, 4),
              1e-12);
}

TEST(MultiKeyTest, StrictQuorumUnaffectedByKeyCount) {
  const QuorumConfig config{3, 2, 2};
  EXPECT_DOUBLE_EQ(MultiKeyFreshnessProbability(config, 100, 1), 1.0);
}

TEST(MaxKeysForFreshnessTargetTest, InvertsTheProduct) {
  const QuorumConfig config{3, 2, 1};  // fresh = 2/3 per key (k=1)
  // (2/3)^m >= 0.1  =>  m <= 5.67  =>  m = 5.
  EXPECT_EQ(MaxKeysForFreshnessTarget(config, 0.1, 1), 5);
  // One key already misses a 0.9 target.
  EXPECT_EQ(MaxKeysForFreshnessTarget(config, 0.9, 1), -1);
  // Strict quorums support unbounded transactions.
  EXPECT_GT(MaxKeysForFreshnessTarget({3, 2, 2}, 0.999, 1), 1000000);
}

TEST(MultiKeyTVisibilityTest, MoreKeysNeedMoreTime) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  double prev = -1.0;
  for (int keys : {1, 4, 16}) {
    const auto curve = EstimateMultiKeyTVisibility({3, 1, 1}, model, keys,
                                                   40000, /*seed=*/1);
    const double t = curve.TimeForConsistency(0.99);
    EXPECT_GT(t, prev) << "keys=" << keys;
    prev = t;
  }
}

TEST(MultiKeyTVisibilityTest, MatchesProductRuleAtFixedT) {
  // P(all keys consistent at t) ~= P(single consistent at t)^keys, since
  // trials are independent across keys.
  const auto model = MakeIidModel(LnkdDisk(), 3);
  const auto single =
      EstimateMultiKeyTVisibility({3, 1, 1}, model, 1, 150000, /*seed=*/2);
  const auto multi =
      EstimateMultiKeyTVisibility({3, 1, 1}, model, 3, 150000, /*seed=*/3);
  for (double t : {0.0, 5.0, 20.0}) {
    EXPECT_NEAR(multi.ProbConsistent(t),
                std::pow(single.ProbConsistent(t), 3.0), 0.01)
        << "t=" << t;
  }
}

TEST(MultiKeyTVisibilityTest, StrictQuorumImmediatelyConsistent) {
  const auto model = MakeIidModel(Ymmr(), 3);
  const auto curve =
      EstimateMultiKeyTVisibility({3, 2, 2}, model, 8, 20000, /*seed=*/4);
  EXPECT_DOUBLE_EQ(curve.ProbConsistent(0.0), 1.0);
}

// ---------------------------------------------------------------------------
// Adaptive (R, W) re-picking (Section 6 "Variable configurations"): the
// caller holds the incumbent, and each epoch re-scores the lattice for its
// fixed N under the epoch's model and re-picks under hysteresis.

class EpochLoop {
 public:
  struct Decision {
    QuorumConfig chosen;
    bool feasible = false;
    bool switched = false;
  };

  EpochLoop(QuorumConfig initial, SlaConstraints sla)
      : current_(initial), sla_(sla) {
    sla_.min_n = initial.n;
    sla_.max_n = initial.n;
  }

  QuorumConfig Update(const ReplicaLatencyModelPtr& model) {
    ++epoch_;
    const SlaOptimizer optimizer([&model](int) { return model; },
                                 /*trials_per_config=*/15000,
                                 /*seed=*/99 + epoch_ * 1000003ULL);
    const SlaCandidate picked =
        Repick(current_, optimizer.EnumerateAll(sla_, {}).value());
    history_.push_back(
        {picked.config, picked.feasible, !(picked.config == current_)});
    current_ = picked.config;
    return current_;
  }

  const QuorumConfig& current() const { return current_; }
  const std::vector<Decision>& history() const { return history_; }

 private:
  QuorumConfig current_;
  SlaConstraints sla_;
  uint64_t epoch_ = 0;
  std::vector<Decision> history_;
};

SlaConstraints TestSla() {
  SlaConstraints sla;
  sla.consistency_probability = 0.999;
  sla.max_t_visibility_ms = 5.0;
  return sla;
}

TEST(AdaptiveControllerTest, KeepsOptimalIncumbentUnderStableConditions) {
  // Under LNKD-SSD, R=W=1 meets a 5 ms SLA and is latency-optimal;
  // repeated updates with the same model must not flap away from it.
  EpochLoop controller({3, 1, 1}, TestSla());
  const auto model = MakeIidModel(LnkdSsd(), 3);
  for (int epoch = 0; epoch < 3; ++epoch) {
    controller.Update(model);
  }
  int switches = 0;
  for (const auto& decision : controller.history()) {
    if (decision.switched) ++switches;
    EXPECT_TRUE(decision.feasible);
  }
  EXPECT_EQ(switches, 0);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
}

TEST(AdaptiveControllerTest, SwitchesOffSuboptimalIncumbentWithoutHysteresis) {
  // A feasible-but-expensive incumbent ({3,2,1} under SSD) is abandoned
  // for the cheaper feasible R=W=1 because the improvement clears the 0.9
  // hysteresis factor.
  EpochLoop controller({3, 2, 1}, TestSla());
  controller.Update(MakeIidModel(LnkdSsd(), 3));
  EXPECT_TRUE(controller.history().back().switched);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
}

TEST(AdaptiveControllerTest, AbandonsInfeasibleConfigAfterRegimeShift) {
  // Start on R=W=1 under SSD latencies (feasible), then shift to
  // slow-write disk-era latencies: R=W=1 blows the 5 ms SLA and the
  // controller must move to a config that restores it.
  EpochLoop controller({3, 1, 1}, TestSla());
  const auto ssd = MakeIidModel(LnkdSsd(), 3);
  controller.Update(ssd);
  EXPECT_EQ(controller.current(), (QuorumConfig{3, 1, 1}));
  EXPECT_TRUE(controller.history().back().feasible);

  const auto disk = MakeIidModel(LnkdDisk(), 3);
  const QuorumConfig chosen = controller.Update(disk);
  EXPECT_TRUE(controller.history().back().feasible)
      << "controller failed to restore the SLA";
  EXPECT_TRUE(controller.history().back().switched);
  EXPECT_FALSE(chosen == (QuorumConfig{3, 1, 1}));

  // Shifting back to SSD land eventually relaxes toward cheaper configs
  // (the challenger R=W=1 must beat the hysteresis margin).
  controller.Update(ssd);
  EXPECT_TRUE(controller.history().back().feasible);
}

TEST(AdaptiveControllerTest, HistoryRecordsEveryEpoch) {
  EpochLoop controller({3, 1, 1}, TestSla());
  const auto model = MakeIidModel(LnkdSsd(), 3);
  controller.Update(model);
  controller.Update(model);
  EXPECT_EQ(controller.history().size(), 2u);
}

TEST(AdaptiveControllerTest, InfeasibleEverywhereStillReportsHonestly) {
  // A 0 ms SLA at 99.99% under heavy-tailed YMMR: only strict quorums
  // qualify; the controller must land on one.
  SlaConstraints sla = TestSla();
  sla.max_t_visibility_ms = 0.0;
  sla.consistency_probability = 0.9999;
  EpochLoop controller({3, 1, 1}, sla);
  controller.Update(MakeIidModel(Ymmr(), 3));
  EXPECT_TRUE(controller.history().back().feasible);
  EXPECT_TRUE(controller.current().IsStrict());
}

}  // namespace
}  // namespace pbs
