#include "dist/sampler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distribution.h"
#include "dist/empirical.h"
#include "dist/mixture.h"
#include "dist/primitives.h"
#include "dist/production.h"
#include "util/fastmath.h"
#include "util/rng.h"

namespace pbs {
namespace {

constexpr double kTiny = 0x1.0p-53;  // smallest NextDouble spacing

// One-sample Kolmogorov-Smirnov statistic against the exact CDF.
double KsStatistic(std::vector<double> samples, const Distribution& dist) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const double cdf = dist.Cdf(samples[i]);
    const double hi = static_cast<double>(i + 1) / n - cdf;
    const double lo = cdf - static_cast<double>(i) / n;
    d = std::max(d, std::max(hi, lo));
  }
  return d;
}

std::vector<std::pair<std::string, DistributionPtr>> EquivalenceCases() {
  return {
      {"exponential", Exponential(1.66)},
      {"pareto", Pareto(0.235, 10.0)},
      {"uniform", Uniform(2.0, 6.0)},
      {"lognormal", LogNormal(0.0, 0.5)},
      {"weibull", Weibull(2.0, 3.0)},
      {"trunc_normal", TruncatedNormal(0.5, 1.0)},
      {"affine_exp", Shifted(Scaled(Exponential(2.0), 3.0), 1.0)},
      {"lnkd_ssd_mixture", LnkdSsd().w},
      {"alias_mixture", Mixture({{0.5, Uniform(0.0, 1.0)},
                                 {0.3, Exponential(1.0)},
                                 {0.2, Pareto(1.0, 4.0)}})},
  };
}

// With m = 200k samples the KS critical value at alpha = 0.001 is
// 1.95/sqrt(m) ~= 0.00436; 0.005 adds headroom for the ~4e-6 fastmath
// tolerance without masking real distribution bugs.
constexpr int kKsSamples = 200000;
constexpr double kKsThreshold = 0.005;

TEST(SamplerEquivalenceTest, VirtualPathMatchesCdf) {
  for (const auto& [name, dist] : EquivalenceCases()) {
    Rng rng(101);
    std::vector<double> samples(kKsSamples);
    for (auto& x : samples) x = dist->Sample(rng);
    EXPECT_LT(KsStatistic(std::move(samples), *dist), kKsThreshold) << name;
  }
}

// The leg shapes CompiledSampler cannot compile, so SamplerPlan samples
// them through the virtual Distribution::SampleBatch fallback: fitted
// empirical legs, affine wrappers around them, and mixtures with a
// non-invertible component. 2000 distinct support points keep each ECDF
// atom (0.0005) well under the KS threshold below.
std::vector<std::pair<std::string, DistributionPtr>> FallbackCases() {
  std::vector<double> support(2000);
  const auto shape = Exponential(0.5);
  for (size_t i = 0; i < support.size(); ++i) {
    support[i] = shape->Quantile((static_cast<double>(i) + 0.5) / 2000.0);
  }
  const auto empirical = Empirical(support);
  return {
      {"empirical", empirical},
      {"shifted_empirical", Shifted(empirical, 1.5)},
      {"scaled_empirical", Scaled(empirical, 2.0)},
      {"mixture_with_empirical",
       Mixture({{0.7, Exponential(1.0)}, {0.3, empirical}})},
  };
}

TEST(SamplerEquivalenceTest, BatchPathMatchesCdf) {
  for (const auto& [name, dist] : FallbackCases()) {
    Rng rng(102);
    std::vector<double> samples(kKsSamples);
    dist->SampleBatch(rng, samples);
    EXPECT_LT(KsStatistic(std::move(samples), *dist), kKsThreshold) << name;
  }
}

TEST(SamplerEquivalenceTest, CompiledPathMatchesCdf) {
  for (const auto& [name, dist] : EquivalenceCases()) {
    CompiledSampler sampler(dist);
    EXPECT_TRUE(sampler.is_compiled()) << name << ": " << sampler.Describe();
    Rng rng(103);
    std::vector<double> samples(kKsSamples);
    sampler.SampleBatch(rng, samples.data(), kKsSamples);
    EXPECT_LT(KsStatistic(std::move(samples), *dist), kKsThreshold)
        << name << ": " << sampler.Describe();
  }
}

// Chi-squared over 64 equiprobable bins (edges from the exact quantile
// function). 63 degrees of freedom: critical value at alpha = 0.001 is
// ~103.4; 110 adds headroom.
TEST(SamplerEquivalenceTest, CompiledSamplesPassChiSquared) {
  for (const auto& dist :
       {Exponential(1.66), LnkdSsd().w, Pareto(0.235, 10.0)}) {
    const int kBins = 64;
    std::vector<double> edges(kBins - 1);
    for (int k = 1; k < kBins; ++k) {
      edges[k - 1] = dist->Quantile(static_cast<double>(k) / kBins);
    }
    CompiledSampler sampler(dist);
    Rng rng(104);
    const int m = 1 << 18;
    std::vector<double> samples(m);
    sampler.SampleBatch(rng, samples.data(), m);
    std::vector<int> counts(kBins, 0);
    for (double x : samples) {
      const auto it = std::upper_bound(edges.begin(), edges.end(), x);
      ++counts[static_cast<size_t>(it - edges.begin())];
    }
    const double expected = static_cast<double>(m) / kBins;
    double chi2 = 0.0;
    for (int c : counts) {
      const double diff = static_cast<double>(c) - expected;
      chi2 += diff * diff / expected;
    }
    EXPECT_LT(chi2, 110.0) << dist->Describe();
  }
}

// RNG-consumption contract (v2): every compiled kind consumes exactly one
// NextDouble per sample — including point masses and mixtures.
TEST(CompiledSamplerTest, ConsumesExactlyOneDrawPerSample) {
  for (const auto& [name, dist] : EquivalenceCases()) {
    CompiledSampler sampler(dist);
    Rng used(55);
    Rng mirror(55);
    const int m = 257;  // odd size crosses batch-tile boundaries
    std::vector<double> buf(m);
    sampler.SampleBatch(used, buf.data(), m);
    for (int i = 0; i < m; ++i) mirror.NextDouble();
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(used.NextDouble(), mirror.NextDouble()) << name;
    }
  }
}

TEST(CompiledSamplerTest, PointMassBurnsDrawsAndEmitsConstant) {
  CompiledSampler sampler(PointMass(3.5));
  Rng used(9);
  Rng mirror(9);
  double buf[100];
  sampler.SampleBatch(used, buf, 100);
  for (double x : buf) EXPECT_EQ(x, 3.5);
  for (int i = 0; i < 100; ++i) mirror.NextDouble();
  EXPECT_EQ(used.NextDouble(), mirror.NextDouble());
}

TEST(SamplerPlanTest, LnkdSsdFusesAllFourLegs) {
  SamplerPlan plan(LnkdSsd());
  EXPECT_TRUE(plan.fully_compiled()) << plan.Describe();
  // All four legs share one mixture object, so the whole trial is one run.
  EXPECT_EQ(plan.num_runs(), 1) << plan.Describe();
}

TEST(SamplerPlanTest, LegsMatchTheirDistributions) {
  const auto wars = LnkdDisk();
  SamplerPlan plan(wars);
  const int n = 5;
  const int trials = 40000;
  std::vector<double> legs(4 * n);
  std::vector<double> w_leg, r_leg;
  Rng rng(105);
  for (int t = 0; t < trials; ++t) {
    plan.SampleLegs(rng, n, legs.data());
    for (int i = 0; i < n; ++i) {
      w_leg.push_back(legs[i]);
      r_leg.push_back(legs[2 * n + i]);
    }
  }
  EXPECT_LT(KsStatistic(std::move(w_leg), *wars.w), kKsThreshold);
  EXPECT_LT(KsStatistic(std::move(r_leg), *wars.r), kKsThreshold);
}

// Bitwise pin of the fallback draws: FNV-1a over the IEEE bits of 512
// trials x 4 legs x 3 replicas of SamplerPlan::SampleLegs per case.
TEST(SamplerPlanTest, FallbackLegDrawsArePinned) {
  const std::pair<const char*, uint64_t> kPins[] = {
      {"empirical", 0x30467ffb12ef0b2bULL},
      {"shifted_empirical", 0xec50848008ed6b08ULL},
      {"scaled_empirical", 0x9f083d54a5badee7ULL},
      {"mixture_with_empirical", 0x2a2106e4f231881bULL},
  };
  const auto cases = FallbackCases();
  ASSERT_EQ(cases.size(), std::size(kPins));
  for (size_t c = 0; c < cases.size(); ++c) {
    const auto& [name, dist] = cases[c];
    ASSERT_EQ(name, kPins[c].first);
    SamplerPlan plan(MakeWars(name, dist, dist));
    EXPECT_FALSE(plan.fully_compiled()) << plan.Describe();
    const int n = 3;
    std::vector<double> legs(4 * n);
    Rng rng(109);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (int t = 0; t < 512; ++t) {
      plan.SampleLegs(rng, n, legs.data());
      for (const double x : legs) {
        uint64_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
          hash = (hash ^ ((bits >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
        }
      }
    }
    EXPECT_EQ(hash, kPins[c].second)
        << name << ": 0x" << std::hex << hash;
  }
}

// Fast-math kernels: documented error bounds, checked against libm.
TEST(FastMathTest, FastLog2StaysWithinDocumentedBound) {
  Rng rng(106);
  for (int i = 0; i < 200000; ++i) {
    const double e = (rng.NextDouble() - 0.5) * 120.0;  // 2^-60 .. 2^60
    const double x = std::exp2(e) * (0.5 + rng.NextDouble());
    ASSERT_LT(std::abs(FastLog2(x) - std::log2(x)), 2e-6) << "x=" << x;
  }
}

TEST(FastMathTest, FastExp2StaysWithinDocumentedBound) {
  Rng rng(107);
  for (int i = 0; i < 200000; ++i) {
    const double x = (rng.NextDouble() - 0.5) * 2000.0;  // [-1000, 1000]
    const double exact = std::exp2(x);
    ASSERT_LT(std::abs(FastExp2(x) - exact), 4e-6 * exact) << "x=" << x;
  }
}

// Edge-draw guards: quantiles at the extreme representable uniforms must be
// finite — a NextDouble draw can be 0.0 or 1 - 2^-53, and inverse-transform
// sampling must not produce inf/NaN there.
TEST(BoundaryTest, QuantilesAreFiniteAtExtremeUniformDraws) {
  for (const auto& [name, dist] : EquivalenceCases()) {
    for (const double p : {0.0, kTiny, 0.5, 1.0 - kTiny}) {
      const double q = dist->Quantile(p);
      EXPECT_TRUE(std::isfinite(q)) << name << " p=" << p << " q=" << q;
    }
  }
}

TEST(BoundaryTest, CompiledSamplersNeverEmitNonFinite) {
  for (const auto& [name, dist] : EquivalenceCases()) {
    CompiledSampler sampler(dist);
    Rng rng(108);
    const int m = 1 << 16;
    std::vector<double> buf(m);
    sampler.SampleBatch(rng, buf.data(), m);
    for (double x : buf) {
      ASSERT_TRUE(std::isfinite(x)) << name << " x=" << x;
    }
  }
}

TEST(BoundaryTest, InverseNormalCdfFiniteJustInsideOpenInterval) {
  EXPECT_TRUE(std::isfinite(InverseNormalCdf(kTiny)));
  EXPECT_TRUE(std::isfinite(InverseNormalCdf(1.0 - kTiny)));
  EXPECT_LT(InverseNormalCdf(kTiny), -6.0);
  EXPECT_GT(InverseNormalCdf(1.0 - kTiny), 6.0);
}

}  // namespace
}  // namespace pbs
