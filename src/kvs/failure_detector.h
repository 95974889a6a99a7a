#ifndef PBS_KVS_FAILURE_DETECTOR_H_
#define PBS_KVS_FAILURE_DETECTOR_H_

#include <cstdint>
#include <vector>

#include "sim/network.h"
#include "util/rng.h"

namespace pbs {
namespace kvs {

class Cluster;

/// Common interface of the cluster failure detectors. A monitor process
/// pings every storage replica each `ping_interval_ms` (ping delayed like a
/// read request, pong like a read response); subclasses decide what pong
/// arrival history means for *suspicion*. Hinted handoff and sloppy quorums
/// consume only IsSuspected(), so either detector can drive them
/// (KvsConfig::failure_detector selects one).
///
/// Detection is unreliable by nature: suspicion lags real state by up to a
/// heartbeat cycle, and slow (not dead) replicas can be falsely suspected;
/// callers must tolerate both.
class FailureDetector {
 public:
  FailureDetector(Cluster* cluster, double ping_interval_ms, uint64_t seed);
  virtual ~FailureDetector() = default;

  /// Schedules the periodic ping task. The task reschedules itself forever;
  /// drive the simulation with RunUntil(...) when a detector is running.
  void Start();

  /// True when the detector currently suspects `node` of having failed.
  virtual bool IsSuspected(NodeId node) const = 0;

  int64_t pings_sent() const { return pings_sent_; }
  int64_t pongs_received() const { return pongs_received_; }

 protected:
  /// Pong from `node` arrived at virtual time `now`.
  virtual void RecordArrival(NodeId node, double now) = 0;

  /// Called once by Start() with the start time, before the first ping.
  virtual void OnStart(double now) = 0;

  /// Grows per-node state to cover `node` (elastic membership: nodes that
  /// joined after construction), initializing fresh entries with the
  /// benefit of the doubt at `now`. Existing entries are untouched.
  virtual void EnsureTracked(NodeId node, double now) = 0;

  Cluster* cluster_;

 private:
  void Tick();
  void OnPong(NodeId node);

  double ping_interval_ms_;
  Rng rng_;
  int64_t pings_sent_ = 0;
  int64_t pongs_received_ = 0;
};

/// Heartbeat (fixed-timeout) fail-stop detector: a replica whose last pong
/// is older than `suspect_timeout_ms` is suspected. Crashed replicas stop
/// ponging and become suspected within roughly interval + timeout;
/// recovered replicas are cleared on their next pong. This is the detector
/// Dynamo-style stores ship as the conservative default.
class HeartbeatFailureDetector : public FailureDetector {
 public:
  struct Options {
    double heartbeat_interval_ms = 100.0;
    double suspect_timeout_ms = 400.0;
  };

  HeartbeatFailureDetector(Cluster* cluster, const Options& options,
                           uint64_t seed);

  bool IsSuspected(NodeId node) const override;

 protected:
  void RecordArrival(NodeId node, double now) override;
  void OnStart(double now) override;
  void EnsureTracked(NodeId node, double now) override;

 private:
  Options options_;
  std::vector<double> last_heard_;  // indexed by node id (grows on joins)
};

/// φ-accrual failure detector (Hayashibara et al.): instead of a binary
/// timeout, each replica accrues a *suspicion level*
///     φ(t) = -log10( P(pong gap > t) )
/// from the empirical distribution of its recent pong inter-arrival times
/// (normal approximation over a sliding window). A node is suspected when
/// φ crosses `threshold` — so the detection delay adapts to the link: a
/// jittery WAN path needs a long silence before φ = 8, a steady LAN path
/// only a short one. This is Cassandra's production detector, and the one
/// that keeps sloppy quorums honest under gray failures: a merely *slow*
/// node accrues suspicion gradually instead of tripping a fixed timeout.
class PhiAccrualFailureDetector : public FailureDetector {
 public:
  struct Options {
    double heartbeat_interval_ms = 100.0;
    double threshold = 8.0;        // suspect at P(gap) < 1e-8
    double min_std_ms = 2.0;       // variance floor (deterministic links)

    /// Cold-start / poisoned-window backstop: regardless of the windowed φ,
    /// a node silent for longer than `max_silence_intervals` heartbeat
    /// intervals is suspected. The windowed estimate alone can stay below
    /// `threshold` indefinitely when the inter-arrival window was inflated
    /// before the failure — e.g. a node slow or lossy from t = 0 whose
    /// reordered pongs produce a huge sample variance — leaving a dead node
    /// trusted forever. The backstop bounds detection at roughly
    /// interval * (1 + max_silence_intervals) no matter what the window
    /// learned. <= 0 disables it.
    double max_silence_intervals = 25.0;
  };

  PhiAccrualFailureDetector(Cluster* cluster, const Options& options,
                            uint64_t seed);

  bool IsSuspected(NodeId node) const override;

  /// Current suspicion level of `node`; 0 before any pong arrived twice.
  double Phi(NodeId node) const;

 protected:
  void RecordArrival(NodeId node, double now) override;
  void OnStart(double now) override;
  void EnsureTracked(NodeId node, double now) override;

 private:
  struct NodeState {
    double last_arrival = 0.0;
    int64_t arrivals = 0;
    // Sliding-window sums for mean/stddev of inter-arrival times.
    std::vector<double> window;  // ring buffer of the last 128 intervals
    int next = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
  };

  Options options_;
  std::vector<NodeState> states_;  // indexed by node id (grows on joins)
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_FAILURE_DETECTOR_H_
