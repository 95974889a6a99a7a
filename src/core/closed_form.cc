#include "core/closed_form.h"

#include <cassert>
#include <cmath>

#include "util/math.h"

namespace pbs {

double SingleQuorumMissProbability(const QuorumConfig& config) {
  assert(config.IsValid());
  // ps = C(N-W, R) / C(N, R): the read quorum must be drawn entirely from
  // the N-W replicas the write did not touch.
  return BinomialRatio(config.n - config.w, config.n, config.r);
}

double KStalenessProbability(const QuorumConfig& config, int k) {
  assert(k >= 1);
  const double ps = SingleQuorumMissProbability(config);
  return std::pow(ps, k);
}

double KFreshnessProbability(const QuorumConfig& config, int k) {
  return ClampProbability(1.0 - KStalenessProbability(config, k));
}

int MinVersionsForTolerance(const QuorumConfig& config, double tolerance) {
  assert(tolerance > 0.0);
  const double ps = SingleQuorumMissProbability(config);
  if (ps <= tolerance) return 1;
  if (ps >= 1.0) return -1;
  // ps^k <= tolerance  <=>  k >= ln(tolerance) / ln(ps).
  const double k = std::log(tolerance) / std::log(ps);
  return static_cast<int>(std::ceil(k - 1e-12));
}

double MonotonicReadsViolationProbability(const QuorumConfig& config,
                                          double gamma_gw, double gamma_cr,
                                          bool strict) {
  assert(gamma_gw >= 0.0);
  assert(gamma_cr > 0.0);
  const double ps = SingleQuorumMissProbability(config);
  // Order matters: a strict quorum (R + W > N) has ps == 0 and can never
  // violate monotonic reads, whatever the exponent — checking the
  // "exponent == 0 => certain violation" edge first used to return 1.0 for
  // exactly the configurations that are provably safe.
  if (ps <= 0.0) return 0.0;
  const double exponent =
      (strict ? 0.0 : 1.0) + gamma_gw / gamma_cr;  // k = 1 + gw/cr (Eq. 3)
  if (exponent == 0.0) return 1.0;  // strict monotonicity with no new writes
  return std::pow(ps, exponent);
}

double EpsilonIntersectingLoadLowerBound(int n, double epsilon) {
  assert(n >= 1);
  assert(epsilon >= 0.0 && epsilon <= 1.0);
  return (1.0 - std::sqrt(epsilon)) / std::sqrt(static_cast<double>(n));
}

double KStalenessLoadLowerBound(int n, double p, double k) {
  assert(n >= 1);
  assert(p >= 0.0 && p <= 1.0);
  assert(k >= 1.0);
  // Tolerating k versions with overall miss probability p lets each of the
  // k constituent epsilon-intersecting systems run at eps = p^(1/k), and
  // Malkhi et al.'s bound gives load >= (1 - sqrt(eps)) / sqrt(N)
  // = (1 - p^(1/(2k))) / sqrt(N). (The paper's text typesets this as
  // "(1-p)^(1/2k)/sqrt(N)", but that form *grows* with k, contradicting the
  // paper's own conclusion that staleness tolerance lowers load; we
  // implement the form consistent with the derivation. k = 1 recovers the
  // plain epsilon-intersecting bound with eps = p.)
  return (1.0 - std::pow(p, 1.0 / (2.0 * k))) /
         std::sqrt(static_cast<double>(n));
}

double TVisibilityStalenessBound(const QuorumConfig& config,
                                 const std::vector<double>& pw_at_t) {
  assert(config.IsValid());
  assert(pw_at_t.size() == static_cast<size_t>(config.n) + 1);
  // pst(t) = sum_{c=W}^{N} P(Wr = c at t) * C(N-c, R) / C(N, R).
  // pw_at_t[c] = P(Wr <= c); by definition P(Wr < W) = 0 for expanding
  // quorums (W replicas hold the version at commit time).
  KahanSum sum;
  for (int c = config.w; c <= config.n; ++c) {
    const double below =
        (c == config.w) ? 0.0 : ClampProbability(pw_at_t[c - 1]);
    const double at_or_below = ClampProbability(pw_at_t[c]);
    const double mass = std::max(0.0, at_or_below - below);
    if (mass == 0.0) continue;
    sum.Add(mass * BinomialRatio(config.n - c, config.n, config.r));
  }
  return ClampProbability(sum.value());
}

double KTStalenessBound(const QuorumConfig& config,
                        const std::vector<double>& pw_at_t, int k) {
  assert(k >= 1);
  return std::pow(TVisibilityStalenessBound(config, pw_at_t), k);
}

}  // namespace pbs
