#ifndef PBS_KVS_FAILURE_H_
#define PBS_KVS_FAILURE_H_

#include <cstdint>
#include <vector>

#include "kvs/ring.h"
#include "sim/network.h"

namespace pbs {
namespace kvs {

class Cluster;

/// One timed fault. Fail-stop crashes (Section 6 "Failure modes": crashed
/// replicas behave like an N-F replica set until they recover; staleness
/// shows up in the tails) sit next to the gray failures real clusters
/// degrade into: a node whose every reply takes 10x as long, a link that
/// drops messages in bursts or delivers them twice, a node that flaps up and
/// down faster than hint delivery converges, and the one-way partition where
/// A hears B but B never hears A.
struct Fault {
  enum class Kind {
    kSlowNode,            // FaultProfile on every message `node` sends
    kLossyLink,           // Gilbert-Elliott loss (and/or dup) on src -> dst
    kFlappingNode,        // crash/recover cycling at up_ms/down_ms
    kAsymmetricPartition, // src -> dst blocked; dst -> src delivers
    kCrash,               // fail-stop: node down, recovers at end (if finite)
  };

  Kind kind = Kind::kSlowNode;
  double start = 0.0;
  double end = 0.0;            // fault is active over [start, end)
  NodeId node = -1;            // kSlowNode / kFlappingNode / kCrash
  NodeId src = -1;             // link faults
  NodeId dst = -1;
  FaultProfile profile;        // kSlowNode / kLossyLink parameters
  double up_ms = 0.0;          // kFlappingNode duty cycle
  double down_ms = 0.0;
};

/// A deterministic schedule of faults, the injection side of the failure and
/// chaos experiments. Overlapping faults on the same node/link are
/// last-writer-wins at install time (keep them disjoint for predictable
/// runs).
class FaultSchedule {
 public:
  /// Every message `node` sends over [start, end) is delayed by
  /// delay' = delay * delay_mult + delay_add_ms.
  void AddSlowNode(double start, double end, NodeId node, double delay_mult,
                   double delay_add_ms = 0.0);

  /// Installs `profile` on the directed link src -> dst over [start, end) —
  /// the general form covering burst loss, duplication, and per-link delay.
  void AddLinkFault(double start, double end, NodeId src, NodeId dst,
                    const FaultProfile& profile);

  /// Bursty (Gilbert-Elliott) loss on src -> dst: the chain enters the bad
  /// state with p_good_to_bad per message, leaves with p_bad_to_good, and
  /// drops with loss_bad while bad (loss_good while good).
  void AddLossyLink(double start, double end, NodeId src, NodeId dst,
                    double p_good_to_bad, double p_bad_to_good,
                    double loss_bad, double loss_good = 0.0);

  /// Duplicate delivery on src -> dst with the given probability.
  void AddDuplicatingLink(double start, double end, NodeId src, NodeId dst,
                          double duplicate_probability);

  /// Crash/recover cycling: starting at `start` the node is up for `up_ms`,
  /// down for `down_ms`, repeating until `end` (left up at the end).
  void AddFlappingNode(double start, double end, NodeId node, double up_ms,
                       double down_ms);

  /// One-way cut src -> dst over [start, end); dst -> src keeps delivering.
  void AddAsymmetricPartition(double start, double end, NodeId src,
                              NodeId dst);

  /// Fail-stop crash: `node` goes down at `start` and recovers at `end`
  /// (storage survives, as in a process restart). An infinite `end` never
  /// recovers.
  void AddCrash(double start, double end, NodeId node);

  /// Appends an already-built fault (merging schedules).
  void Add(const Fault& fault) { faults_.push_back(fault); }

  const std::vector<Fault>& faults() const { return faults_; }

  /// Schedules installation (at fault.start) and removal (at fault.end) of
  /// every fault on the cluster's simulator and network. Each gray-fault
  /// activation bumps the per-kind counters in ClusterMetrics; crashes
  /// count nothing.
  void InstallOn(Cluster* cluster) const;

  /// An independent crash/repair process per replica over [0, horizon):
  /// exponential time-to-failure with mean `mtbf_ms`, then exponential
  /// repair with mean `mttr_ms`, repeating. A repair that would land at or
  /// past the horizon is dropped, so the node's last crash is open-ended.
  static FaultSchedule RandomCrashRecover(int num_replicas, double horizon_ms,
                                          double mtbf_ms, double mttr_ms,
                                          uint64_t seed);

  /// Generates a seeded random mix of gray failures over [0, horizon):
  /// fault arrivals are Poisson with mean spacing `mean_interarrival_ms`,
  /// each fault picks a kind (uniformly), a victim node/link among
  /// `num_replicas` replicas, and an exponential duration with mean
  /// `mean_duration_ms`. Severity knobs use representative defaults (10x
  /// slowdown, 50% bursty loss, 20% duplication, 1:1 flapping).
  static FaultSchedule RandomGrayFailures(int num_replicas,
                                          double horizon_ms,
                                          double mean_interarrival_ms,
                                          double mean_duration_ms,
                                          uint64_t seed);

 private:
  std::vector<Fault> faults_;
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_FAILURE_H_
