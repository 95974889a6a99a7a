#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/tvisibility.h"

#include "core/latency.h"
#include "core/predictor.h"
#include "dist/primitives.h"
#include "dist/production.h"

namespace pbs {
namespace {

TEST(LatencyProfileTest, PercentilesOnKnownData) {
  LatencyProfile profile({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(profile.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(profile.Percentile(100.0), 5.0);
  EXPECT_DOUBLE_EQ(profile.Median(), 3.0);
  EXPECT_DOUBLE_EQ(profile.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(profile.CdfAt(2.5), 0.4);
  EXPECT_EQ(profile.size(), 5u);
}

TEST(LatencyProfileTest, SortedAccessor) {
  LatencyProfile profile({3.0, 1.0, 2.0});
  EXPECT_TRUE(std::is_sorted(profile.sorted().begin(),
                             profile.sorted().end()));
}

TEST(EstimateLatenciesTest, OrderStatisticsWithDeterministicLegs) {
  // All legs point masses: read latency = r+s = 3, write latency = w+a = 3.
  WarsDistributions dists;
  dists.name = "pm";
  dists.w = PointMass(2.0);
  dists.a = PointMass(1.0);
  dists.r = PointMass(1.5);
  dists.s = PointMass(1.5);
  const auto model = MakeIidModel(dists, 3);
  const auto latencies = EstimateLatencies({3, 2, 2}, model, 100, /*seed=*/1);
  EXPECT_DOUBLE_EQ(latencies.reads.Percentile(99.0), 3.0);
  EXPECT_DOUBLE_EQ(latencies.writes.Percentile(99.0), 3.0);
}

TEST(EstimateLatenciesTest, HigherRRaisesReadLatency) {
  const auto model = MakeIidModel(Ymmr(), 3);
  double prev = 0.0;
  for (int r = 1; r <= 3; ++r) {
    const auto latencies =
        EstimateLatencies({3, r, 1}, model, 30000, /*seed=*/2);
    const double median = latencies.reads.Median();
    EXPECT_GT(median, prev) << "R=" << r;
    prev = median;
  }
}

TEST(PbsPredictorTest, AgreesWithDirectEstimators) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  PredictorOptions options;
  options.trials = 20000;
  options.seed = 3;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create({3, 1, 1}, model, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const PbsPredictor& predictor = created.value();

  const TVisibilityCurve direct =
      EstimateTVisibility({3, 1, 1}, model, 20000, /*seed=*/3);
  // Identical seeds and trial counts: identical Monte Carlo columns.
  EXPECT_DOUBLE_EQ(predictor.ProbConsistent(5.0), direct.ProbConsistent(5.0));
  EXPECT_DOUBLE_EQ(predictor.TimeForConsistency(0.999),
                   direct.TimeForConsistency(0.999));
}

TEST(PbsPredictorTest, ClosedFormDelegation) {
  const auto model = MakeIidModel(LnkdSsd(), 3);
  PredictorOptions options;
  options.trials = 1000;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create({3, 1, 1}, model, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const PbsPredictor& predictor = created.value();
  EXPECT_NEAR(predictor.KStaleness(1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(predictor.KFreshness(2), 1.0 - 4.0 / 9.0, 1e-12);
  EXPECT_NEAR(predictor.MonotonicReadsViolation(1.0, 1.0),
              std::pow(2.0 / 3.0, 2.0), 1e-12);
}

TEST(PbsPredictorTest, KTBoundDecreasesInKAndT) {
  const auto model = MakeIidModel(LnkdDisk(), 3);
  PredictorOptions options;
  options.trials = 50000;
  options.seed = 4;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create({3, 1, 1}, model, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const PbsPredictor& predictor = created.value();
  const double p_k1_t0 = predictor.KTStalenessUpperBound(1, 0.0);
  const double p_k2_t0 = predictor.KTStalenessUpperBound(2, 0.0);
  const double p_k1_t10 = predictor.KTStalenessUpperBound(1, 10.0);
  EXPECT_LT(p_k2_t0, p_k1_t0);
  EXPECT_LT(p_k1_t10, p_k1_t0);
}

TEST(PbsPredictorTest, LatencyPercentilesExposed) {
  const auto model = MakeIidModel(LnkdSsd(), 3);
  PredictorOptions options;
  options.trials = 20000;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create({3, 1, 1}, model, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const PbsPredictor& predictor = created.value();
  EXPECT_GT(predictor.ReadLatencyPercentile(99.9), 0.0);
  EXPECT_GT(predictor.WriteLatencyPercentile(99.9),
            predictor.WriteLatencyPercentile(50.0));
}

TEST(PbsPredictorTest, StrictConfigReportsZeroVisibilityWindow) {
  const auto model = MakeIidModel(Ymmr(), 3);
  PredictorOptions options;
  options.trials = 20000;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create({3, 2, 2}, model, options);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const PbsPredictor& predictor = created.value();
  EXPECT_DOUBLE_EQ(predictor.ProbConsistent(0.0), 1.0);
  EXPECT_DOUBLE_EQ(predictor.TimeForConsistency(0.9999), 0.0);
}

}  // namespace
}  // namespace pbs
