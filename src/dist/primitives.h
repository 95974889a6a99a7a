#ifndef PBS_DIST_PRIMITIVES_H_
#define PBS_DIST_PRIMITIVES_H_

#include <string>

#include "dist/distribution.h"

namespace pbs {

/// Exponential(lambda): rate parameterization; mean = 1/lambda. The paper
/// writes e.g. "W = lambda in {0.05, 0.1, 0.2} (means 20ms, 10ms, 5ms)".
class ExponentialDistribution final : public Distribution {
 public:
  explicit ExponentialDistribution(double lambda);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return 1.0 / lambda_; }
  std::string Describe() const override;

  double lambda() const { return lambda_; }

 private:
  double lambda_;
};

/// Pareto(xm, alpha): support [xm, inf), Cdf(x) = 1 - (xm/x)^alpha. The body
/// of every production latency fit in Table 3 of the paper.
class ParetoDistribution final : public Distribution {
 public:
  ParetoDistribution(double xm, double alpha);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  double xm() const { return xm_; }
  double alpha() const { return alpha_; }

 private:
  double xm_;
  double alpha_;
};

/// Uniform on [lo, hi].
class UniformDistribution final : public Distribution {
 public:
  UniformDistribution(double lo, double hi);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return 0.5 * (lo_ + hi_); }
  std::string Describe() const override;

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  double lo_;
  double hi_;
};

/// Normal(mu, sigma) truncated below at zero (latencies are non-negative).
/// Cdf/Quantile/Mean account for the truncation.
class TruncatedNormalDistribution final : public Distribution {
 public:
  TruncatedNormalDistribution(double mu, double sigma);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
  double below_zero_;  // mass of the untruncated normal below 0
};

/// LogNormal: log X ~ Normal(mu, sigma).
class LogNormalDistribution final : public Distribution {
 public:
  LogNormalDistribution(double mu, double sigma);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Weibull(shape, scale).
class WeibullDistribution final : public Distribution {
 public:
  WeibullDistribution(double shape, double scale);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  double shape() const { return shape_; }
  double scale() const { return scale_; }

 private:
  double shape_;
  double scale_;
};

/// Degenerate distribution: always `value`. Useful for tests and for
/// modeling fixed network delays.
class PointMassDistribution final : public Distribution {
 public:
  explicit PointMassDistribution(double value);

  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override { return value_; }
  std::string Describe() const override;

  double value() const { return value_; }

 private:
  double value_;
};

/// base + offset (offset >= 0): e.g. a WAN hop adds a fixed 75 ms to every
/// one-way message delay.
class ShiftedDistribution final : public Distribution {
 public:
  ShiftedDistribution(DistributionPtr base, double offset);

  double Sample(Rng& rng) const override;
  void SampleBatch(Rng& rng, std::span<double> out) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  const DistributionPtr& base() const { return base_; }
  double offset() const { return offset_; }

 private:
  DistributionPtr base_;
  double offset_;
};

/// base * factor (factor > 0).
class ScaledDistribution final : public Distribution {
 public:
  ScaledDistribution(DistributionPtr base, double factor);

  double Sample(Rng& rng) const override;
  void SampleBatch(Rng& rng, std::span<double> out) const override;
  double Cdf(double x) const override;
  double Quantile(double p) const override;
  double Mean() const override;
  std::string Describe() const override;

  const DistributionPtr& base() const { return base_; }
  double factor() const { return factor_; }

 private:
  DistributionPtr base_;
  double factor_;
};

// Factory helpers (return shared, immutable instances).
DistributionPtr Exponential(double lambda);
DistributionPtr Pareto(double xm, double alpha);
DistributionPtr Uniform(double lo, double hi);
DistributionPtr TruncatedNormal(double mu, double sigma);
DistributionPtr LogNormal(double mu, double sigma);
DistributionPtr Weibull(double shape, double scale);
DistributionPtr PointMass(double value);
DistributionPtr Shifted(DistributionPtr base, double offset);
DistributionPtr Scaled(DistributionPtr base, double factor);

}  // namespace pbs

#endif  // PBS_DIST_PRIMITIVES_H_
