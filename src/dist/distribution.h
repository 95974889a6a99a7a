#ifndef PBS_DIST_DISTRIBUTION_H_
#define PBS_DIST_DISTRIBUTION_H_

#include <memory>
#include <span>
#include <string>

#include "util/rng.h"

namespace pbs {

/// A one-dimensional, non-negative latency distribution.
///
/// All of PBS's t-visibility machinery is parameterized by four such
/// distributions (W, A, R, S — the one-way message delays of the WARS model),
/// and the Dynamo-style simulator draws every message delay from one.
///
/// Implementations must be immutable after construction so a single instance
/// can be shared by many samplers/threads (each caller supplies its own Rng).
class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Draws one sample. The default implementation applies the inverse-CDF
  /// transform to a uniform variate; subclasses may override with a direct
  /// sampler (e.g. mixtures pick a branch first).
  virtual double Sample(Rng& rng) const;

  /// Fills `out` with independent samples distributed like Sample(rng).
  /// This is CompiledSampler's fallback for the trees it cannot compile:
  /// empirical legs, mixtures with a non-invertible component, and affine
  /// wrappers around those. Their overrides hoist the per-sample virtual
  /// dispatch out of the loop and must consume exactly the same Rng draws
  /// per sample as Sample(), so interleaved scalar/batch sequences stay
  /// deterministic (the draws are pinned in tests/dist_sampler_test.cc).
  virtual void SampleBatch(Rng& rng, std::span<double> out) const;

  /// P(X <= x).
  virtual double Cdf(double x) const = 0;

  /// Inverse CDF at p in [0, 1]. Implementations must satisfy
  /// Cdf(Quantile(p)) ~= p wherever the CDF is continuous.
  virtual double Quantile(double p) const = 0;

  /// Expected value; +infinity when the mean does not exist (e.g. Pareto
  /// with alpha <= 1).
  virtual double Mean() const = 0;

  /// Short human-readable description, e.g. "Exponential(lambda=0.183)".
  virtual std::string Describe() const = 0;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

/// Generic quantile-by-bisection helper for distributions whose CDF is easy
/// but whose inverse is not (mixtures, truncated normals). Finds x with
/// Cdf(x) ~= p by expanding an upper bracket then bisecting to `tol`.
double QuantileByBisection(const Distribution& dist, double p, double lo_hint,
                           double hi_hint, double tol = 1e-10);

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Exposed for the normal/lognormal primitives
/// and for confidence-interval computations. Returns -infinity for p <= 0 and
/// +infinity for p >= 1 so that quantile edge cases degrade gracefully
/// instead of asserting (p == 1.0 can arise from rounding in truncated
/// distributions even when the uniform draw is strictly below 1).
double InverseNormalCdf(double p);

}  // namespace pbs

#endif  // PBS_DIST_DISTRIBUTION_H_
