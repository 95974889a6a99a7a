#include "kvs/failure.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "dist/primitives.h"
#include "kvs/cluster.h"
#include "util/rng.h"

namespace pbs {
namespace kvs {

void FaultSchedule::AddSlowNode(double start, double end, NodeId node,
                                double delay_mult, double delay_add_ms) {
  assert(end > start);
  assert(delay_mult >= 1.0 || delay_add_ms > 0.0);
  Fault fault;
  fault.kind = Fault::Kind::kSlowNode;
  fault.start = start;
  fault.end = end;
  fault.node = node;
  fault.profile.delay_mult = delay_mult;
  fault.profile.delay_add_ms = delay_add_ms;
  faults_.push_back(fault);
}

void FaultSchedule::AddLinkFault(double start, double end, NodeId src,
                                 NodeId dst, const FaultProfile& profile) {
  assert(end > start);
  Fault fault;
  fault.kind = Fault::Kind::kLossyLink;
  fault.start = start;
  fault.end = end;
  fault.src = src;
  fault.dst = dst;
  fault.profile = profile;
  faults_.push_back(fault);
}

void FaultSchedule::AddLossyLink(double start, double end, NodeId src,
                                 NodeId dst, double p_good_to_bad,
                                 double p_bad_to_good, double loss_bad,
                                 double loss_good) {
  FaultProfile profile;
  profile.p_good_to_bad = p_good_to_bad;
  profile.p_bad_to_good = p_bad_to_good;
  profile.loss_bad = loss_bad;
  profile.loss_good = loss_good;
  AddLinkFault(start, end, src, dst, profile);
}

void FaultSchedule::AddDuplicatingLink(double start, double end, NodeId src,
                                       NodeId dst,
                                       double duplicate_probability) {
  FaultProfile profile;
  profile.duplicate_probability = duplicate_probability;
  AddLinkFault(start, end, src, dst, profile);
}

void FaultSchedule::AddFlappingNode(double start, double end, NodeId node,
                                    double up_ms, double down_ms) {
  assert(end > start);
  assert(up_ms > 0.0 && down_ms > 0.0);
  Fault fault;
  fault.kind = Fault::Kind::kFlappingNode;
  fault.start = start;
  fault.end = end;
  fault.node = node;
  fault.up_ms = up_ms;
  fault.down_ms = down_ms;
  faults_.push_back(fault);
}

void FaultSchedule::AddAsymmetricPartition(double start, double end,
                                           NodeId src, NodeId dst) {
  assert(end > start);
  Fault fault;
  fault.kind = Fault::Kind::kAsymmetricPartition;
  fault.start = start;
  fault.end = end;
  fault.src = src;
  fault.dst = dst;
  faults_.push_back(fault);
}

void FaultSchedule::AddCrash(double start, double end, NodeId node) {
  assert(end > start);
  Fault fault;
  fault.kind = Fault::Kind::kCrash;
  fault.start = start;
  fault.end = end;
  fault.node = node;
  faults_.push_back(fault);
}

void FaultSchedule::InstallOn(Cluster* cluster) const {
  assert(cluster != nullptr);
  for (const Fault& fault : faults_) {
    switch (fault.kind) {
      case Fault::Kind::kSlowNode: {
        const NodeId node = fault.node;
        const FaultProfile profile = fault.profile;
        cluster->sim().At(fault.start, [cluster, node, profile]() {
          ++cluster->metrics().fault_slow_node_activations;
          cluster->network().SetNodeFault(node, profile);
        });
        cluster->sim().At(fault.end, [cluster, node]() {
          cluster->network().ClearNodeFault(node);
        });
        break;
      }
      case Fault::Kind::kLossyLink: {
        const NodeId src = fault.src;
        const NodeId dst = fault.dst;
        const FaultProfile profile = fault.profile;
        cluster->sim().At(fault.start, [cluster, src, dst, profile]() {
          ++cluster->metrics().fault_lossy_link_activations;
          cluster->network().SetLinkFault(src, dst, profile);
        });
        cluster->sim().At(fault.end, [cluster, src, dst]() {
          cluster->network().ClearLinkFault(src, dst);
        });
        break;
      }
      case Fault::Kind::kFlappingNode: {
        // Unroll the duty cycle into crash/recover pairs; the node is
        // always left up at fault.end.
        const NodeId id = fault.node;
        cluster->sim().At(fault.start, [cluster]() {
          ++cluster->metrics().fault_flapping_activations;
        });
        for (double t = fault.start + fault.up_ms; t < fault.end;
             t += fault.up_ms + fault.down_ms) {
          Node* node = &cluster->node(id);
          cluster->sim().At(t, [node]() { node->Crash(); });
          const double recover = std::min(t + fault.down_ms, fault.end);
          cluster->sim().At(recover, [node]() { node->Recover(); });
        }
        break;
      }
      case Fault::Kind::kAsymmetricPartition: {
        const NodeId src = fault.src;
        const NodeId dst = fault.dst;
        cluster->sim().At(fault.start, [cluster, src, dst]() {
          ++cluster->metrics().fault_asymmetric_partition_activations;
          cluster->network().SetOneWayPartitioned(src, dst, true);
        });
        cluster->sim().At(fault.end, [cluster, src, dst]() {
          cluster->network().SetOneWayPartitioned(src, dst, false);
        });
        break;
      }
      case Fault::Kind::kCrash: {
        Node* node = &cluster->node(fault.node);
        cluster->sim().At(fault.start, [node]() { node->Crash(); });
        if (std::isfinite(fault.end)) {
          cluster->sim().At(fault.end, [node]() { node->Recover(); });
        }
        break;
      }
    }
  }
}

FaultSchedule FaultSchedule::RandomGrayFailures(int num_replicas,
                                                double horizon_ms,
                                                double mean_interarrival_ms,
                                                double mean_duration_ms,
                                                uint64_t seed) {
  assert(num_replicas >= 2);
  assert(horizon_ms > 0.0);
  assert(mean_interarrival_ms > 0.0);
  assert(mean_duration_ms > 0.0);
  FaultSchedule schedule;
  Rng rng(seed);
  const ExponentialDistribution spacing(1.0 / mean_interarrival_ms);
  const ExponentialDistribution duration(1.0 / mean_duration_ms);
  double t = spacing.Sample(rng);
  while (t < horizon_ms) {
    const double end = std::min(t + duration.Sample(rng), horizon_ms);
    const NodeId node = static_cast<NodeId>(rng.NextBounded(num_replicas));
    NodeId peer = static_cast<NodeId>(rng.NextBounded(num_replicas - 1));
    if (peer >= node) ++peer;
    if (end > t) {
      switch (rng.NextBounded(4)) {
        case 0:
          schedule.AddSlowNode(t, end, node, /*delay_mult=*/10.0);
          break;
        case 1:
          schedule.AddLossyLink(t, end, node, peer, /*p_good_to_bad=*/0.1,
                                /*p_bad_to_good=*/0.3, /*loss_bad=*/0.5);
          break;
        case 2: {
          const double up = 4.0 * mean_duration_ms / 10.0;
          schedule.AddFlappingNode(t, end, node, std::max(up, 1.0),
                                   std::max(up, 1.0));
          break;
        }
        case 3:
          schedule.AddAsymmetricPartition(t, end, node, peer);
          break;
      }
    }
    t += spacing.Sample(rng);
  }
  return schedule;
}

FaultSchedule FaultSchedule::RandomCrashRecover(int num_replicas,
                                                double horizon_ms,
                                                double mtbf_ms, double mttr_ms,
                                                uint64_t seed) {
  assert(num_replicas >= 1);
  assert(horizon_ms > 0.0);
  assert(mtbf_ms > 0.0);
  assert(mttr_ms > 0.0);
  FaultSchedule schedule;
  Rng rng(seed);
  const ExponentialDistribution up(1.0 / mtbf_ms);
  const ExponentialDistribution down(1.0 / mttr_ms);
  for (int node = 0; node < num_replicas; ++node) {
    double t = up.Sample(rng);
    while (t < horizon_ms) {
      const double crash = t;
      t += down.Sample(rng);
      if (t >= horizon_ms) {
        schedule.AddCrash(crash, std::numeric_limits<double>::infinity(),
                          node);
        break;
      }
      schedule.AddCrash(crash, t, node);
      t += up.Sample(rng);
    }
  }
  return schedule;
}

}  // namespace kvs
}  // namespace pbs
