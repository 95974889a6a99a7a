#ifndef PBS_KVS_CLIENT_H_
#define PBS_KVS_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kvs/node.h"
#include "kvs/rates.h"
#include "kvs/ring.h"
#include "kvs/version.h"
#include "util/rng.h"

namespace pbs {
namespace kvs {

class Cluster;

/// A client session bound to one coordinator ("sticky" routing unless the
/// caller rebinds). Sessions assign write version metadata (global per-key
/// sequence and LWW stamp) and track the monotonic-reads
/// session guarantee (Section 3.2): a read that returns an older version
/// than this session previously saw for the key counts as a violation.
///
/// When KvsConfig::retry allows more than one attempt, failed operations
/// retry with capped exponential backoff and deterministic jitter until the
/// per-operation deadline budget runs out; each attempt's coordinator
/// timeout is clipped to the remaining budget. Results carry the attempt
/// count, client-visible latency spans all attempts, and (for reads with
/// RetryOptions::downgrade_reads) a `downgraded` flag plus a kDowngraded
/// status when a retry accepted fewer than the configured R responses.
/// Exhausting the deadline yields kDeadlineExceeded; a plain quorum miss
/// yields kTimedOut.
///
/// The session is the tracing entry point: each operation consults the
/// cluster's Tracer (counter-based sampling, zero RNG draws) and threads
/// the resulting trace id through every coordinator attempt, so hedges,
/// retries and repairs all attribute to one causal trace.
class ClientSession {
 public:
  ClientSession(Cluster* cluster, NodeId coordinator, int32_t client_id);

  /// Issues a write through the session's coordinator. `done` may be null.
  void Write(Key key, std::string value, WriteCallback done = nullptr);

  /// Issues a read; monotonicity is checked before `done` runs.
  void Read(Key key, ReadCallback done = nullptr);

  /// Outcome of a multi-key read-only operation (Section 6 "Multi-key
  /// operations"): per-key results aligned with the requested keys.
  struct MultiReadResult {
    bool ok = false;  // every per-key read succeeded
    double latency_ms = 0.0;  // slowest constituent read
    std::vector<ReadResult> results;
  };
  using MultiReadCallback = std::function<void(const MultiReadResult&)>;

  /// Reads all `keys` in parallel through this session's coordinator and
  /// invokes `done` once every constituent read finished. Each key hits its
  /// own independent quorum, so the all-fresh probability follows the
  /// product rule of core/multikey.h.
  void MultiRead(const std::vector<Key>& keys, MultiReadCallback done);

  /// Re-binds the session to a different coordinator (breaking stickiness —
  /// useful to demonstrate why sticky routing helps monotonic reads).
  void set_coordinator(NodeId coordinator) { coordinator_ = coordinator; }
  NodeId coordinator() const { return coordinator_; }

  int64_t reads_issued() const { return reads_issued_; }
  int64_t monotonic_violations() const { return monotonic_violations_; }

  /// Latest cluster ring version this session has observed (0 until a first
  /// operation completes). Every operation carries it to the coordinator,
  /// which counts ops routed with an out-of-date version as
  /// stale_routes_forwarded — the ring-version-aware routing handshake.
  uint64_t known_ring_version() const { return known_ring_version_; }

  /// This session's measured read rate for `key` in reads/ms (gamma_cr of
  /// Equation 3); 0 until two reads have been observed.
  double ReadRatePerMs(Key key) const;

  /// Live Equation 3 prediction: the probability this session's *next*
  /// read of `key` violates monotonic reads, computed from the measured
  /// global write rate and this session's measured read rate ("by
  /// measuring their distribution, we can calculate an expected value" —
  /// Section 3.2). Conservative for expanding quorums. Returns 0 when
  /// either rate is still unmeasured.
  double PredictedMonotonicViolationProbability(Key key) const;

 private:
  void StartWriteAttempt(Key key, VersionedValue value, WriteCallback done,
                         int attempt, double op_start, uint64_t trace_id);
  void StartReadAttempt(Key key, ReadCallback done, int attempt,
                        double op_start, uint64_t trace_id);
  /// Per-attempt coordinator timeout: the configured request timeout
  /// clipped to the remaining deadline budget (0 = use the configured
  /// timeout unchanged).
  double AttemptTimeoutMs(double op_start) const;
  /// Backoff before the next attempt (capped exponential, jitter in
  /// [0.5, 1)), or a negative value when the operation must fail now
  /// (attempts exhausted, or the backoff would blow the deadline — the
  /// latter counts a client_deadline_miss and sets *deadline_limited so
  /// the caller reports kDeadlineExceeded instead of kTimedOut).
  double NextRetryDelayMs(int attempt, double op_start,
                          bool* deadline_limited);
  /// Monotonic-reads accounting + the user callback.
  void FinishRead(Key key, const ReadResult& result, ReadCallback& done);

  Cluster* cluster_;
  NodeId coordinator_;
  int32_t client_id_;
  Rng retry_rng_;
  uint64_t known_ring_version_ = 0;
  int64_t reads_issued_ = 0;
  int64_t monotonic_violations_ = 0;
  std::unordered_map<Key, int64_t> last_read_sequence_;
  std::unordered_map<Key, RateEstimator> read_rates_;
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_CLIENT_H_
