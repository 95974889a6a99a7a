// Pluggable predictor backends (DESIGN.md §12): the wire names, the
// Status-typed PbsPredictor::Create factory and its rejections, engine
// interchangeability behind the PredictionEngine surface, kAuto's
// resolve-and-fall-back behavior, and the backend-dispatched
// MixedQuorumPredictor the consistency controller builds per epoch.

#include "core/backend.h"

#include <string>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/closed_form.h"
#include "core/predictor.h"
#include "core/wars.h"
#include "dist/production.h"
#include "util/status.h"

namespace pbs {
namespace {

// ------------------------------------------------------------- wire names

TEST(PredictorBackendTest, NamesRoundTripThroughParse) {
  for (const PredictorBackend backend :
       {PredictorBackend::kMonteCarlo, PredictorBackend::kAnalytic,
        PredictorBackend::kAuto}) {
    const StatusOr<PredictorBackend> parsed =
        ParsePredictorBackend(PredictorBackendName(backend));
    ASSERT_TRUE(parsed.ok()) << PredictorBackendName(backend);
    EXPECT_EQ(parsed.value(), backend);
  }
  EXPECT_STREQ(PredictorBackendName(PredictorBackend::kMonteCarlo), "mc");
  EXPECT_STREQ(PredictorBackendName(PredictorBackend::kAnalytic), "analytic");
  EXPECT_STREQ(PredictorBackendName(PredictorBackend::kAuto), "auto");
}

TEST(PredictorBackendTest, ParseAcceptsAliasesAndRejectsUnknownNames) {
  // "montecarlo" / "monte-carlo" are accepted spellings of "mc".
  for (const char* alias : {"montecarlo", "monte-carlo"}) {
    const StatusOr<PredictorBackend> parsed = ParsePredictorBackend(alias);
    ASSERT_TRUE(parsed.ok()) << alias;
    EXPECT_EQ(parsed.value(), PredictorBackend::kMonteCarlo);
  }
  EXPECT_FALSE(ParsePredictorBackend("").ok());
  EXPECT_FALSE(ParsePredictorBackend("turbo").ok());
  EXPECT_FALSE(ParsePredictorBackend("MC").ok());
  EXPECT_EQ(ParsePredictorBackend("turbo").status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- Create factory

TEST(PbsPredictorCreateTest, RejectsInvalidInputs) {
  const auto model = MakeIidModel(LnkdDisk(), 3);

  // Quorum shape.
  EXPECT_FALSE(PbsPredictor::Create({3, 4, 1}, model).ok());
  EXPECT_FALSE(PbsPredictor::Create({0, 1, 1}, model).ok());
  // Null / size-mismatched model.
  EXPECT_FALSE(PbsPredictor::Create({3, 1, 1}, nullptr).ok());
  EXPECT_FALSE(
      PbsPredictor::Create({5, 1, 1}, MakeIidModel(LnkdDisk(), 3)).ok());
  // Trial budget and grid shape.
  PredictorOptions options;
  options.trials = 0;
  EXPECT_FALSE(PbsPredictor::Create({3, 1, 1}, model, options).ok());
  options = {};
  options.backend = PredictorBackend::kAnalytic;
  options.grid.bins = 0;
  EXPECT_FALSE(PbsPredictor::Create({3, 1, 1}, model, options).ok());
  options.grid = {};
  options.grid.max_ms = -1.0;
  EXPECT_FALSE(PbsPredictor::Create({3, 1, 1}, model, options).ok());
}

TEST(PbsPredictorCreateTest, AnalyticDemandsAnIidModel) {
  PredictorOptions options;
  options.backend = PredictorBackend::kAnalytic;
  const auto wan = MakeWanModel(WanLocalBase(), 5);
  const auto created = PbsPredictor::Create({5, 2, 2}, wan, options);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------- engine interchangeability

TEST(PredictionEngineTest, AnalyticAgreesWithMonteCarlo) {
  // The DESIGN.md §12 contract in miniature (bench/analytic_vs_mc runs the
  // full sweep): same query surface, answers within the documented
  // tolerances.
  const auto model = MakeIidModel(LnkdDisk(), 3);
  PredictorOptions mc_options;
  mc_options.trials = 200000;
  mc_options.seed = 7;
  const auto mc = PbsPredictor::Create({3, 1, 1}, model, mc_options);
  ASSERT_TRUE(mc.ok());
  EXPECT_EQ(mc.value().backend(), PredictorBackend::kMonteCarlo);

  PredictorOptions an_options;
  an_options.backend = PredictorBackend::kAnalytic;
  const auto an = PbsPredictor::Create({3, 1, 1}, model, an_options);
  ASSERT_TRUE(an.ok());
  EXPECT_EQ(an.value().backend(), PredictorBackend::kAnalytic);
  EXPECT_TRUE(an.value().backend_note().empty());

  for (double pct : {50.0, 99.0, 99.9}) {
    const double mc_read = mc.value().ReadLatencyPercentile(pct);
    EXPECT_NEAR(an.value().ReadLatencyPercentile(pct), mc_read,
                0.02 * mc_read + 0.15)
        << "read pct=" << pct;
    const double mc_write = mc.value().WriteLatencyPercentile(pct);
    EXPECT_NEAR(an.value().WriteLatencyPercentile(pct), mc_write,
                0.02 * mc_write + 0.15)
        << "write pct=" << pct;
  }
  for (double t : {0.0, 5.0, 20.0}) {
    EXPECT_NEAR(an.value().ProbConsistent(t), mc.value().ProbConsistent(t),
                0.05)
        << "t=" << t;
  }
  // Propagation CDF shape: size N+1, monotone, terminal 1.
  const auto pw = an.value().engine().WritePropagationCdfAt(5.0);
  ASSERT_EQ(pw.size(), 4u);
  for (size_t c = 1; c < pw.size(); ++c) EXPECT_GE(pw[c] + 1e-12, pw[c - 1]);
  EXPECT_DOUBLE_EQ(pw.back(), 1.0);
}

TEST(PredictionEngineTest, ClosedFormQueriesAreBackendIndependent) {
  // k-staleness and monotonic reads lower through core/closed_form.h for
  // every backend: bitwise identical, no engine involved.
  const auto model = MakeIidModel(LnkdSsd(), 3);
  PredictorOptions mc_options;
  mc_options.trials = 5000;
  PredictorOptions an_options;
  an_options.backend = PredictorBackend::kAnalytic;
  const auto mc = PbsPredictor::Create({3, 1, 1}, model, mc_options);
  const auto an = PbsPredictor::Create({3, 1, 1}, model, an_options);
  ASSERT_TRUE(mc.ok());
  ASSERT_TRUE(an.ok());
  for (int k : {1, 2, 3}) {
    EXPECT_EQ(mc.value().KStaleness(k), an.value().KStaleness(k));
    EXPECT_EQ(mc.value().KFreshness(k), an.value().KFreshness(k));
    EXPECT_EQ(an.value().KStaleness(k),
              KStalenessProbability({3, 1, 1}, k));
  }
  EXPECT_EQ(mc.value().MonotonicReadsViolation(2.0, 1.0),
            an.value().MonotonicReadsViolation(2.0, 1.0));
}

// ------------------------------------------------------------------ kAuto

TEST(AutoBackendTest, KeepsAnalyticForIidModels) {
  PredictorOptions options;
  options.backend = PredictorBackend::kAuto;
  options.trials = 20000;
  const auto created =
      PbsPredictor::Create({3, 1, 1}, MakeIidModel(LnkdDisk(), 3), options);
  ASSERT_TRUE(created.ok());
  // LNKD-DISK passes the spot-check (bench/analytic_vs_mc pins the margin),
  // so kAuto resolves to the analytic engine with nothing to report.
  EXPECT_EQ(created.value().backend(), PredictorBackend::kAnalytic);
  EXPECT_TRUE(created.value().backend_note().empty());
}

TEST(AutoBackendTest, FallsBackToMonteCarloForNonIidModels) {
  PredictorOptions options;
  options.backend = PredictorBackend::kAuto;
  options.trials = 20000;
  const auto created = PbsPredictor::Create(
      {5, 2, 2}, MakeWanModel(WanLocalBase(), 5), options);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created.value().backend(), PredictorBackend::kMonteCarlo);
  EXPECT_FALSE(created.value().backend_note().empty());
}

// ------------------------------------------------- MixedQuorumPredictor

TEST(MixedQuorumPredictorTest, MonteCarloModeIsExactlyTheFreeFunction) {
  // The controller's per-epoch predictor in kMonteCarlo mode must be a
  // pass-through to EvaluateMixedQuorum — this is what keeps historical
  // controller decision streams and digests bitwise unchanged.
  SlaTarget sla;
  sla.fresh_probability = 0.9;
  sla.staleness_bound_ms = 10.0;
  sla.read_p99_ms = 50.0;
  const auto model = MakeIidModel(LnkdDisk(), 3);
  const MixedQuorum quorum{3, 1, 2, 2, 0.25};

  MixedQuorumPredictor::Options options;
  options.trials = 2000;
  options.read_fanout = ReadFanout::kQuorumOnly;
  options.exec.threads = 1;
  const MixedQuorumPredictor predictor(sla, model, quorum, options);
  EXPECT_EQ(predictor.backend(), PredictorBackend::kMonteCarlo);

  const MixedQuorumEvaluation via_predictor = predictor.Evaluate(quorum, 31);
  const MixedQuorumEvaluation direct = EvaluateMixedQuorum(
      quorum, sla, model, options.trials, 31, options.read_fanout,
      options.exec);
  EXPECT_EQ(via_predictor.fresh_probability, direct.fresh_probability);
  EXPECT_EQ(via_predictor.read_p99_ms, direct.read_p99_ms);
  EXPECT_EQ(via_predictor.write_p99_ms, direct.write_p99_ms);
  EXPECT_EQ(via_predictor.feasible, direct.feasible);
}

TEST(MixedQuorumPredictorTest, AnalyticModeIsSeedFree) {
  SlaTarget sla;
  sla.fresh_probability = 0.9;
  sla.staleness_bound_ms = 10.0;
  sla.read_p99_ms = 50.0;
  MixedQuorumPredictor::Options options;
  options.backend = PredictorBackend::kAnalytic;
  const MixedQuorum quorum{3, 1, 2, 2, 0.5};
  const MixedQuorumPredictor predictor(sla, MakeIidModel(LnkdDisk(), 3),
                                       quorum, options);
  ASSERT_EQ(predictor.backend(), PredictorBackend::kAnalytic);
  EXPECT_TRUE(predictor.note().empty());
  // No RNG: the seed is ignored, evaluations are bitwise repeatable.
  const MixedQuorumEvaluation a = predictor.Evaluate(quorum, 1);
  const MixedQuorumEvaluation b = predictor.Evaluate(quorum, 999);
  EXPECT_EQ(a.fresh_probability, b.fresh_probability);
  EXPECT_EQ(a.read_p99_ms, b.read_p99_ms);
  EXPECT_EQ(a.write_p99_ms, b.write_p99_ms);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(MixedQuorumPredictorTest, AnalyticFallsBackInsteadOfFailing) {
  // The controller cannot surface a Status mid-epoch, so kAnalytic against
  // a non-IID model degrades to Monte Carlo and says why.
  SlaTarget sla;
  sla.fresh_probability = 0.9;
  sla.staleness_bound_ms = 10.0;
  sla.read_p99_ms = 500.0;
  MixedQuorumPredictor::Options options;
  options.backend = PredictorBackend::kAnalytic;
  options.trials = 500;
  const MixedQuorum quorum{5, 1, 2, 2, 0.0};
  const MixedQuorumPredictor predictor(
      sla, MakeWanModel(WanLocalBase(), 5), quorum, options);
  EXPECT_EQ(predictor.backend(), PredictorBackend::kMonteCarlo);
  EXPECT_FALSE(predictor.note().empty());
  const MixedQuorumEvaluation eval = predictor.Evaluate(quorum, 3);
  EXPECT_GT(eval.fresh_probability, 0.0);
}

TEST(MixedQuorumPredictorTest, AutoResolvesThroughTheSharedGuard) {
  // kAuto resolves through ResolveAnalyticScenario: LNKD-DISK passes the
  // spot-check on the probe's fixed arm and keeps the analytic engine;
  // the WAN model is not IID and falls back with a note.
  SlaTarget sla;
  sla.fresh_probability = 0.9;
  sla.staleness_bound_ms = 10.0;
  sla.read_p99_ms = 50.0;
  MixedQuorumPredictor::Options options;
  options.backend = PredictorBackend::kAuto;
  const MixedQuorumPredictor disk(sla, MakeIidModel(LnkdDisk(), 3),
                                  MixedQuorum{3, 1, 2, 2, 0.25}, options);
  EXPECT_EQ(disk.backend(), PredictorBackend::kAnalytic);
  EXPECT_TRUE(disk.note().empty()) << disk.note();

  options.trials = 500;
  const MixedQuorumPredictor wan(sla, MakeWanModel(WanLocalBase(), 5),
                                 MixedQuorum{5, 1, 2, 2, 0.0}, options);
  EXPECT_EQ(wan.backend(), PredictorBackend::kMonteCarlo);
  EXPECT_NE(wan.note().find("not IID"), std::string::npos) << wan.note();
}

}  // namespace
}  // namespace pbs
