#ifndef PBS_CORE_CLOSED_FORM_H_
#define PBS_CORE_CLOSED_FORM_H_

#include <vector>

#include "core/quorum_config.h"

namespace pbs {

// Closed-form PBS models (Section 3 of the paper). All functions assume the
// classical probabilistic-quorum setting: W (R) of N replicas are chosen
// uniformly at random per write (read), quorums do not expand, and the
// probabilities are independent across versions. For expanding partial
// quorums (Dynamo) these are conservative upper bounds on staleness.

/// Equation 1: probability that a random read quorum misses the most recent
/// write quorum entirely, ps = C(N-W, R) / C(N, R). Zero for strict quorums.
double SingleQuorumMissProbability(const QuorumConfig& config);

/// Equation 2: PBS k-staleness — probability that a read quorum intersects
/// none of the last k independent write quorums, psk = ps^k. The returned
/// value is the probability of *staleness beyond k versions*;
/// 1 - psk is the probability the read returns a value within the last k
/// committed versions. Requires k >= 1.
double KStalenessProbability(const QuorumConfig& config, int k);

/// 1 - psk: probability of reading one of the latest k versions.
double KFreshnessProbability(const QuorumConfig& config, int k);

/// Smallest k such that the probability of staleness beyond k versions is at
/// most `tolerance`. Returns -1 when no finite k achieves it (ps == 1).
int MinVersionsForTolerance(const QuorumConfig& config, double tolerance);

/// Equation 3: PBS monotonic reads — probability that a client's read
/// observes a version at least as new as its previous read, given the global
/// write rate `gamma_gw` and the client's read rate `gamma_cr` for the data
/// item. Equals k-staleness with the (possibly fractional) exponent
/// k = 1 + gamma_gw / gamma_cr. Set `strict` for strict monotonic reads
/// (exponent gamma_gw / gamma_cr: the client must see strictly newer data if
/// it exists).
double MonotonicReadsViolationProbability(const QuorumConfig& config,
                                          double gamma_gw, double gamma_cr,
                                          bool strict = false);

/// Section 3.3: lower bound on the load of an epsilon-intersecting quorum
/// system, (1 - eps)^... per Malkhi et al.: load >= (1 - sqrt(eps)) /
/// sqrt(N). Exposed for the load-improvement analysis.
double EpsilonIntersectingLoadLowerBound(int n, double epsilon);

/// Section 3.3: lower bound on load when tolerating k versions of staleness
/// with overall inconsistency probability p: each of the k constituent
/// epsilon-intersecting systems runs at eps = p^(1/k), giving
/// load >= (1 - p^(1/(2k))) / sqrt(N), which decreases toward 0 as k grows
/// (staleness tolerance lowers load / raises capacity).
double KStalenessLoadLowerBound(int n, double p, double k);

/// A write-propagation CDF: Pw(c, t) = P(at least c replicas have received
/// the version t seconds after commit), for c in [0, N]. Callers provide a
/// callable; `EmpiricalPw` in core/tvisibility.h estimates one from WARS.
using WritePropagationCdf = std::vector<double> (*)(double t);

/// Equation 4: upper bound on the probability a read started t seconds after
/// commit misses the write, given `pw_at_t[c]` = P(exactly <= c replicas
/// have the version at time t) expressed as the CDF over the replica count:
/// pw_at_t[c] = P(Wr <= c). pw_at_t must have size N+1 with pw_at_t[N] = 1.
/// At t = 0 the write quorum W is guaranteed, so P(Wr < W) = 0.
double TVisibilityStalenessBound(const QuorumConfig& config,
                                 const std::vector<double>& pw_at_t);

/// Equation 5: <k, t>-staleness upper bound — the Equation 4 bound
/// exponentiated by k (the paper's conservative rule of thumb, assuming the
/// pathological case where the last k writes committed simultaneously).
double KTStalenessBound(const QuorumConfig& config,
                        const std::vector<double>& pw_at_t, int k);

}  // namespace pbs

#endif  // PBS_CORE_CLOSED_FORM_H_
