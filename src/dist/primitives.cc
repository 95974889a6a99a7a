#include "dist/primitives.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/stats.h"

namespace pbs {
namespace {

double StdNormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

// Largest double strictly below 1.0 on the 53-bit uniform grid. Quantile
// arguments are clamped here in sampling paths so that a 1-in-2^53 edge draw
// (or internal rounding up to exactly 1.0) cannot produce an infinite
// latency.
constexpr double kMaxOpenUniform = 0x1.fffffffffffffp-1;  // 1 - 2^-53

}  // namespace

// ---------------------------------------------------------------------------
// Exponential

ExponentialDistribution::ExponentialDistribution(double lambda)
    : lambda_(lambda) {
  assert(lambda > 0.0);
}

double ExponentialDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return 1.0 - std::exp(-lambda_ * x);
}

double ExponentialDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return -std::log1p(-p) / lambda_;
}

std::string ExponentialDistribution::Describe() const {
  return "Exponential(lambda=" + FormatDouble(lambda_, 4) + ")";
}

// ---------------------------------------------------------------------------
// Pareto

ParetoDistribution::ParetoDistribution(double xm, double alpha)
    : xm_(xm), alpha_(alpha) {
  assert(xm > 0.0);
  assert(alpha > 0.0);
}

double ParetoDistribution::Cdf(double x) const {
  if (x < xm_) return 0.0;
  return 1.0 - std::pow(xm_ / x, alpha_);
}

double ParetoDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return xm_ * std::pow(1.0 - p, -1.0 / alpha_);
}

double ParetoDistribution::Mean() const {
  if (alpha_ <= 1.0) return std::numeric_limits<double>::infinity();
  return alpha_ * xm_ / (alpha_ - 1.0);
}

std::string ParetoDistribution::Describe() const {
  return "Pareto(xm=" + FormatDouble(xm_, 4) +
         ", alpha=" + FormatDouble(alpha_, 4) + ")";
}

// ---------------------------------------------------------------------------
// Uniform

UniformDistribution::UniformDistribution(double lo, double hi)
    : lo_(lo), hi_(hi) {
  assert(hi > lo);
}

double UniformDistribution::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

double UniformDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  return lo_ + p * (hi_ - lo_);
}

std::string UniformDistribution::Describe() const {
  return "Uniform(" + FormatDouble(lo_, 4) + ", " + FormatDouble(hi_, 4) +
         ")";
}

// ---------------------------------------------------------------------------
// TruncatedNormal

TruncatedNormalDistribution::TruncatedNormalDistribution(double mu,
                                                         double sigma)
    : mu_(mu), sigma_(sigma), below_zero_(StdNormalCdf(-mu / sigma)) {
  assert(sigma > 0.0);
}

double TruncatedNormalDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  const double untruncated = StdNormalCdf((x - mu_) / sigma_);
  return (untruncated - below_zero_) / (1.0 - below_zero_);
}

double TruncatedNormalDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // For p within one ulp of 1, the affine map below can round to exactly 1.0
  // even though p < 1 (e.g. p = 1 - 2^-53 from a uniform edge draw). Clamp
  // inside the open interval so the result stays finite.
  const double adjusted =
      std::min(below_zero_ + p * (1.0 - below_zero_), kMaxOpenUniform);
  return mu_ + sigma_ * InverseNormalCdf(adjusted);
}

double TruncatedNormalDistribution::Mean() const {
  // E[X | X > 0] for X ~ N(mu, sigma): mu + sigma * phi(a) / (1 - Phi(a)),
  // a = -mu/sigma.
  const double a = -mu_ / sigma_;
  const double phi =
      std::exp(-0.5 * a * a) / std::sqrt(2.0 * 3.14159265358979323846);
  return mu_ + sigma_ * phi / (1.0 - below_zero_);
}

std::string TruncatedNormalDistribution::Describe() const {
  return "TruncNormal(mu=" + FormatDouble(mu_, 4) +
         ", sigma=" + FormatDouble(sigma_, 4) + ")";
}

// ---------------------------------------------------------------------------
// LogNormal

LogNormalDistribution::LogNormalDistribution(double mu, double sigma)
    : mu_(mu), sigma_(sigma) {
  assert(sigma > 0.0);
}

double LogNormalDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return StdNormalCdf((std::log(x) - mu_) / sigma_);
}

double LogNormalDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return std::exp(mu_ + sigma_ * InverseNormalCdf(p));
}

double LogNormalDistribution::Mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

std::string LogNormalDistribution::Describe() const {
  return "LogNormal(mu=" + FormatDouble(mu_, 4) +
         ", sigma=" + FormatDouble(sigma_, 4) + ")";
}

// ---------------------------------------------------------------------------
// Weibull

WeibullDistribution::WeibullDistribution(double shape, double scale)
    : shape_(shape), scale_(scale) {
  assert(shape > 0.0);
  assert(scale > 0.0);
}

double WeibullDistribution::Cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

double WeibullDistribution::Quantile(double p) const {
  assert(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double WeibullDistribution::Mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}

std::string WeibullDistribution::Describe() const {
  return "Weibull(shape=" + FormatDouble(shape_, 4) +
         ", scale=" + FormatDouble(scale_, 4) + ")";
}

// ---------------------------------------------------------------------------
// PointMass

PointMassDistribution::PointMassDistribution(double value) : value_(value) {}

double PointMassDistribution::Cdf(double x) const {
  return x >= value_ ? 1.0 : 0.0;
}

double PointMassDistribution::Quantile(double) const { return value_; }

std::string PointMassDistribution::Describe() const {
  return "PointMass(" + FormatDouble(value_, 4) + ")";
}

// ---------------------------------------------------------------------------
// Shifted

ShiftedDistribution::ShiftedDistribution(DistributionPtr base, double offset)
    : base_(std::move(base)), offset_(offset) {
  assert(base_ != nullptr);
}

double ShiftedDistribution::Sample(Rng& rng) const {
  return base_->Sample(rng) + offset_;
}

void ShiftedDistribution::SampleBatch(Rng& rng, std::span<double> out) const {
  base_->SampleBatch(rng, out);
  for (double& x : out) x += offset_;
}

double ShiftedDistribution::Cdf(double x) const {
  return base_->Cdf(x - offset_);
}

double ShiftedDistribution::Quantile(double p) const {
  return base_->Quantile(p) + offset_;
}

double ShiftedDistribution::Mean() const { return base_->Mean() + offset_; }

std::string ShiftedDistribution::Describe() const {
  return base_->Describe() + " + " + FormatDouble(offset_, 4);
}

// ---------------------------------------------------------------------------
// Scaled

ScaledDistribution::ScaledDistribution(DistributionPtr base, double factor)
    : base_(std::move(base)), factor_(factor) {
  assert(base_ != nullptr);
  assert(factor > 0.0);
}

double ScaledDistribution::Sample(Rng& rng) const {
  return base_->Sample(rng) * factor_;
}

void ScaledDistribution::SampleBatch(Rng& rng, std::span<double> out) const {
  base_->SampleBatch(rng, out);
  for (double& x : out) x *= factor_;
}

double ScaledDistribution::Cdf(double x) const {
  return base_->Cdf(x / factor_);
}

double ScaledDistribution::Quantile(double p) const {
  return base_->Quantile(p) * factor_;
}

double ScaledDistribution::Mean() const { return base_->Mean() * factor_; }

std::string ScaledDistribution::Describe() const {
  return base_->Describe() + " * " + FormatDouble(factor_, 4);
}

// ---------------------------------------------------------------------------
// Factories

DistributionPtr Exponential(double lambda) {
  return std::make_shared<ExponentialDistribution>(lambda);
}
DistributionPtr Pareto(double xm, double alpha) {
  return std::make_shared<ParetoDistribution>(xm, alpha);
}
DistributionPtr Uniform(double lo, double hi) {
  return std::make_shared<UniformDistribution>(lo, hi);
}
DistributionPtr TruncatedNormal(double mu, double sigma) {
  return std::make_shared<TruncatedNormalDistribution>(mu, sigma);
}
DistributionPtr LogNormal(double mu, double sigma) {
  return std::make_shared<LogNormalDistribution>(mu, sigma);
}
DistributionPtr Weibull(double shape, double scale) {
  return std::make_shared<WeibullDistribution>(shape, scale);
}
DistributionPtr PointMass(double value) {
  return std::make_shared<PointMassDistribution>(value);
}
DistributionPtr Shifted(DistributionPtr base, double offset) {
  return std::make_shared<ShiftedDistribution>(std::move(base), offset);
}
DistributionPtr Scaled(DistributionPtr base, double factor) {
  return std::make_shared<ScaledDistribution>(std::move(base), factor);
}

}  // namespace pbs
