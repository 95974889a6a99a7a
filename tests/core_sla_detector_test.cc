#include <bit>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "core/sla.h"
#include "core/staleness_detector.h"
#include "core/wars.h"
#include "dist/production.h"

namespace pbs {
namespace {

SlaOptimizer::ModelFactory DiskFactory() {
  return [](int n) { return MakeIidModel(LnkdDisk(), n); };
}

TEST(SlaOptimizerTest, EnumeratesTheWholeBox) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/2000, /*seed=*/1);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 3;
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  // N=2 contributes 2*2 configs, N=3 contributes 3*3.
  EXPECT_EQ(candidates.size(), 4u + 9u);
}

TEST(SlaOptimizerTest, FeasibleSortedByObjective) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/3000, /*seed=*/2);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.max_t_visibility_ms = 1e9;  // everything feasible
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_TRUE(candidates[i - 1].feasible);
    EXPECT_LE(candidates[i - 1].objective, candidates[i].objective);
  }
}

TEST(SlaOptimizerTest, TightStalenessBoundForcesStricterQuorums) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/3);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.consistency_probability = 0.9999;
  constraints.max_t_visibility_ms = 0.0;  // zero staleness window
  const auto best = optimizer.Optimize(constraints, {});
  ASSERT_TRUE(best.ok());
  // Only overlapping quorums give a zero window at that probability.
  EXPECT_TRUE(best.value().config.IsStrict());
}

TEST(SlaOptimizerTest, RelaxedBoundPrefersR1W1) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/4);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.consistency_probability = 0.999;
  constraints.max_t_visibility_ms = 1e6;  // effectively unconstrained
  const auto best = optimizer.Optimize(constraints, {});
  ASSERT_TRUE(best.ok());
  // Smallest quorums are fastest when staleness does not bind.
  EXPECT_EQ(best.value().config.r, 1);
  EXPECT_EQ(best.value().config.w, 1);
}

TEST(SlaOptimizerTest, DurabilityFloorRespected) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/2000, /*seed=*/5);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.min_write_quorum = 2;
  constraints.max_t_visibility_ms = 1e6;
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  for (const auto& candidate : candidates) {
    EXPECT_GE(candidate.config.w, 2);
  }
}

TEST(SlaOptimizerTest, UnsatisfiableReturnsNotFound) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/1000, /*seed=*/6);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 2;
  constraints.min_write_quorum = 3;  // no W in [3, 2]: empty box
  const auto best = optimizer.Optimize(constraints, {});
  EXPECT_FALSE(best.ok());
}

TEST(SlaOptimizerTest, WriteWeightSteersTheChoice) {
  // With only write latency in the objective and a strict-staleness bound,
  // prefer W=1-ish configs that satisfy the bound through R instead.
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/5000, /*seed=*/7);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  constraints.consistency_probability = 0.9999;
  constraints.max_t_visibility_ms = 0.0;
  SlaObjective writes_only;
  writes_only.read_weight = 0.0;
  writes_only.write_weight = 1.0;
  const auto best = optimizer.Optimize(constraints, writes_only);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best.value().config.w, 1);
  EXPECT_EQ(best.value().config.r, 3);  // R=3, W=1 is the write-cheap strict quorum
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(SlaOptimizerTest, MonteCarloScoresArePinned) {
  // Every field of every scored cell, bit for bit: scoring through the
  // predictor's Monte Carlo engine runs the same trials and rank queries
  // as the optimizer's historical inline scorer.
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/3000, /*seed=*/11);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 4;
  const auto candidates = optimizer.EnumerateAll(constraints, {}).value();
  ASSERT_EQ(candidates.size(), 29u);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const SlaCandidate& c : candidates) {
    hash = FnvMix(hash, static_cast<uint64_t>(c.config.n));
    hash = FnvMix(hash, static_cast<uint64_t>(c.config.r));
    hash = FnvMix(hash, static_cast<uint64_t>(c.config.w));
    hash = FnvMix(hash, std::bit_cast<uint64_t>(c.t_visibility_ms));
    hash = FnvMix(hash, std::bit_cast<uint64_t>(c.read_latency_ms));
    hash = FnvMix(hash, std::bit_cast<uint64_t>(c.write_latency_ms));
    hash = FnvMix(hash, std::bit_cast<uint64_t>(c.objective));
    hash = FnvMix(hash, c.feasible ? 1u : 0u);
  }
  EXPECT_EQ(hash, 0x7ed8b153bbcd5073ULL);
}

TEST(SlaOptimizerTest, AnalyticCellsMatchThePredictor) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/1000, /*seed=*/1, {},
                         PredictorBackend::kAnalytic);
  SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 4;
  SlaObjective objective;
  objective.read_weight = 0.7;
  objective.write_weight = 0.3;
  const auto candidates =
      optimizer.EnumerateAll(constraints, objective).value();
  ASSERT_EQ(candidates.size(), 29u);
  PredictorOptions options;
  options.backend = PredictorBackend::kAnalytic;
  options.grid = SlaOptimizer::kGrid;
  for (const SlaCandidate& c : candidates) {
    const auto predictor = PbsPredictor::Create(
        c.config, MakeIidModel(LnkdDisk(), c.config.n), options);
    ASSERT_TRUE(predictor.ok());
    const PbsPredictor& p = predictor.value();
    ASSERT_EQ(p.backend(), PredictorBackend::kAnalytic);
    const double read = p.ReadLatencyPercentile(objective.latency_percentile);
    const double write =
        p.WriteLatencyPercentile(objective.latency_percentile);
    const double t = p.TimeForConsistency(constraints.consistency_probability);
    EXPECT_EQ(c.t_visibility_ms, t) << c.config.ToString();
    EXPECT_EQ(c.read_latency_ms, read) << c.config.ToString();
    EXPECT_EQ(c.write_latency_ms, write) << c.config.ToString();
    EXPECT_EQ(c.objective,
              objective.read_weight * read + objective.write_weight * write)
        << c.config.ToString();
    EXPECT_EQ(c.feasible, t <= constraints.max_t_visibility_ms)
        << c.config.ToString();
  }
}

TEST(SlaOptimizerTest, AnalyticBackendRejectsNonIidModels) {
  SlaOptimizer optimizer(
      [](int n) { return MakeWanModel(WanLocalBase(), n); }, /*trials=*/100,
      /*seed=*/1, {}, PredictorBackend::kAnalytic);
  SlaConstraints constraints;
  constraints.min_n = 3;
  constraints.max_n = 3;
  const auto candidates = optimizer.EnumerateAll(constraints, {});
  ASSERT_FALSE(candidates.ok());
  EXPECT_EQ(candidates.status().code(), StatusCode::kInvalidArgument);
}

TEST(SlaOptimizerTest, OptimizeReturnsTheValidationStatus) {
  SlaOptimizer optimizer(DiskFactory(), /*trials=*/100, /*seed=*/1);
  SlaConstraints constraints;
  constraints.min_n = 0;  // would ask the factory for a 0-replica model
  const auto best = optimizer.Optimize(constraints, {});
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kInvalidArgument);
  SlaObjective objective;
  objective.write_weight = -0.5;  // pbs sla --read-fraction=1.5
  EXPECT_EQ(optimizer.Optimize({}, objective).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SlaConstraintsTest, DefaultsAreValid) {
  EXPECT_TRUE(SlaConstraints{}.Validate().ok());
  EXPECT_TRUE(SlaObjective{}.Validate().ok());
}

TEST(SlaConstraintsTest, RejectsProbabilityOutsideZeroToOne) {
  for (const double p : {0.0, -0.5, 1.0001, 99.9,
                         std::numeric_limits<double>::quiet_NaN()}) {
    SlaConstraints constraints;
    constraints.consistency_probability = p;
    EXPECT_FALSE(constraints.Validate().ok()) << p;
  }
  SlaConstraints one;
  one.consistency_probability = 1.0;
  EXPECT_TRUE(one.Validate().ok());
}

TEST(SlaConstraintsTest, RejectsNegativeMaxT) {
  SlaConstraints constraints;
  constraints.max_t_visibility_ms = -1.0;
  EXPECT_FALSE(constraints.Validate().ok());
  constraints.max_t_visibility_ms = 0.0;
  EXPECT_TRUE(constraints.Validate().ok());
}

TEST(SlaConstraintsTest, RejectsMinNBelowOne) {
  SlaConstraints constraints;
  constraints.min_n = 0;
  EXPECT_FALSE(constraints.Validate().ok());
}

TEST(SlaConstraintsTest, RejectsMaxNBelowMinN) {
  SlaConstraints constraints;
  constraints.min_n = 4;
  constraints.max_n = 3;
  EXPECT_FALSE(constraints.Validate().ok());
}

TEST(SlaConstraintsTest, RejectsMinWriteQuorumBelowOne) {
  SlaConstraints constraints;
  constraints.min_write_quorum = 0;
  EXPECT_FALSE(constraints.Validate().ok());
}

TEST(SlaObjectiveTest, RejectsPercentileOutsideZeroToHundred) {
  for (const double pct : {-1.0, 100.5}) {
    SlaObjective objective;
    objective.latency_percentile = pct;
    EXPECT_FALSE(objective.Validate().ok()) << pct;
  }
}

TEST(SlaObjectiveTest, RejectsNegativeWeights) {
  SlaObjective objective;
  objective.read_weight = -0.1;
  EXPECT_FALSE(objective.Validate().ok());
  objective = {};
  objective.write_weight = -0.5;
  EXPECT_FALSE(objective.Validate().ok());
}

// ---------------------------------------------------------------------------
// Repick (Section 6 "Variable configurations" hysteresis), on hand-built
// scorings in EnumerateAll's order: feasible first, then by objective.

SlaCandidate Cell(int r, int w, double objective, bool feasible) {
  SlaCandidate c;
  c.config = {3, r, w};
  c.objective = objective;
  c.feasible = feasible;
  return c;
}

TEST(RepickTest, HoldsWithinTheMargin) {
  // 9.5 is not below 0.9 * 10: the feasible incumbent stays.
  const std::vector<SlaCandidate> scored = {Cell(2, 1, 9.5, true),
                                            Cell(1, 1, 10.0, true),
                                            Cell(3, 1, 12.0, true)};
  EXPECT_EQ(Repick({3, 1, 1}, scored).config, (QuorumConfig{3, 1, 1}));
}

TEST(RepickTest, SwitchesPastTheMargin) {
  const std::vector<SlaCandidate> scored = {Cell(2, 1, 8.9, true),
                                            Cell(1, 1, 10.0, true)};
  const SlaCandidate picked = Repick({3, 1, 1}, scored);
  EXPECT_EQ(picked.config, (QuorumConfig{3, 2, 1}));
  EXPECT_EQ(picked.objective, 8.9);
}

TEST(RepickTest, LeavesAnInfeasibleIncumbent) {
  // Any feasible cell beats an infeasible incumbent, however cheap it is.
  const std::vector<SlaCandidate> scored = {Cell(3, 1, 20.0, true),
                                            Cell(1, 1, 1.0, false)};
  EXPECT_EQ(Repick({3, 1, 1}, scored).config, (QuorumConfig{3, 3, 1}));
  // With no cell feasible, only the margin moves it.
  const std::vector<SlaCandidate> none = {Cell(1, 2, 9.5, false),
                                          Cell(1, 1, 10.0, false),
                                          Cell(3, 1, 20.0, false)};
  EXPECT_EQ(Repick({3, 1, 1}, none).config, (QuorumConfig{3, 1, 1}));
  EXPECT_EQ(Repick({3, 3, 1}, none).config, (QuorumConfig{3, 1, 2}));
}

TEST(RepickTest, ATieNeverSwitches) {
  const std::vector<SlaCandidate> scored = {Cell(1, 2, 10.0, true),
                                            Cell(2, 1, 10.0, true)};
  EXPECT_EQ(Repick({3, 2, 1}, scored).config, (QuorumConfig{3, 2, 1}));
  const std::vector<SlaCandidate> zeros = {Cell(1, 1, 0.0, true),
                                           Cell(2, 2, 0.0, true)};
  EXPECT_EQ(Repick({3, 2, 2}, zeros).config, (QuorumConfig{3, 2, 2}));
}

// ---------------------------------------------------------------------------
// Staleness detector (Section 4.3)

TEST(StalenessDetectorTest, ConsistentWhenNoNewerLateResponses) {
  StalenessDetector detector;
  ReadObservation obs;
  obs.returned_version = 5;
  obs.late_response_versions = {5, 4, 0};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kConsistent);
  EXPECT_EQ(detector.consistent(), 1);
}

TEST(StalenessDetectorTest, HeuristicModeFlagsWithoutClassifying) {
  StalenessDetector detector;  // no oracle
  ReadObservation obs;
  obs.returned_version = 3;
  obs.late_response_versions = {7};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kFlagged);
  EXPECT_EQ(detector.flagged(), 1);
  EXPECT_EQ(detector.stale(), 0);
}

TEST(StalenessDetectorTest, OracleSeparatesStaleFromFalsePositive) {
  // Versions 1..10 commit at time = version; version 9 is uncommitted.
  auto oracle = [](int64_t version) -> double {
    if (version == 9) return -1.0;
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);

  // Read started at t=6.5 and returned version 5; a late response shows
  // version 6, which committed at 6.0 <= 6.5: a true stale read.
  ReadObservation stale;
  stale.returned_version = 5;
  stale.read_start_time = 6.5;
  stale.late_response_versions = {6};
  EXPECT_EQ(detector.Observe(stale), StalenessVerdict::kStale);

  // Late response shows uncommitted version 9: newer-but-uncommitted.
  ReadObservation in_flight;
  in_flight.returned_version = 8;
  in_flight.read_start_time = 8.5;
  in_flight.late_response_versions = {9};
  EXPECT_EQ(detector.Observe(in_flight), StalenessVerdict::kFalsePositive);

  // Late response committed *after* the read started: also a false
  // positive under the paper's staleness semantics.
  ReadObservation committed_later;
  committed_later.returned_version = 7;
  committed_later.read_start_time = 7.5;
  committed_later.late_response_versions = {8};
  EXPECT_EQ(detector.Observe(committed_later),
            StalenessVerdict::kFalsePositive);

  EXPECT_EQ(detector.stale(), 1);
  EXPECT_EQ(detector.false_positives(), 2);
  EXPECT_EQ(detector.reads(), 3);
}

TEST(StalenessDetectorTest, IntermediateCommittedVersionCaughtEvenIfNewestIsNot) {
  // Newest late version (9) is uncommitted, but version 6 (also late,
  // committed before the read) proves staleness.
  auto oracle = [](int64_t version) -> double {
    if (version == 9) return -1.0;
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);
  ReadObservation obs;
  obs.returned_version = 5;
  obs.read_start_time = 6.5;
  obs.late_response_versions = {9, 6};
  EXPECT_EQ(detector.Observe(obs), StalenessVerdict::kStale);
}

TEST(StalenessDetectorTest, EmpiricalConsistencyAccounting) {
  auto oracle = [](int64_t version) {
    return static_cast<double>(version);
  };
  StalenessDetector detector(oracle);
  ReadObservation fresh;
  fresh.returned_version = 2;
  fresh.late_response_versions = {1};
  detector.Observe(fresh);
  ReadObservation stale;
  stale.returned_version = 1;
  stale.read_start_time = 10.0;
  stale.late_response_versions = {2};
  detector.Observe(stale);
  EXPECT_DOUBLE_EQ(detector.EmpiricalConsistency(), 0.5);
}

}  // namespace
}  // namespace pbs
