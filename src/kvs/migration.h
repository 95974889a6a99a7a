#ifndef PBS_KVS_MIGRATION_H_
#define PBS_KVS_MIGRATION_H_

#include <cstdint>
#include <deque>
#include <map>

#include "kvs/ring.h"
#include "sim/network.h"
#include "util/rng.h"

namespace pbs {
namespace kvs {

class Cluster;

/// Background data migration for elastic membership changes.
///
/// When a node joins or leaves the ring, every key whose preference list
/// changed must reach its new owners before the old epoch can be retired.
/// The Migrator computes, per membership change, the set of (key, source,
/// destination) transfers — a destination is any *new-epoch* replica that
/// was not already a replica in the old epoch — and streams them out in
/// paced batches per source node (64 keys every
/// RebalanceOptions::stream_interval_ms), so migration competes gently with
/// foreground traffic.
///
/// Transfers travel over the simulated network as repair-style write legs
/// and apply through the normal last-writer-wins storage path, so a
/// migrated value can never clobber a newer foreground write. Values are
/// re-read from the source's storage at send time (freshest version wins).
/// A transfer the network drops retries up to 3 times;
/// beyond that it is abandoned to preference-list-scoped anti-entropy and
/// counted in migration_transfers_dropped. While any transfer is
/// outstanding the cluster routes operations to the union of old- and
/// new-epoch replica sets, which is what makes the handoff lossless for
/// acknowledged writes.
///
/// Determinism: batch pacing is driven by the simulator clock, per-transfer
/// network delays sample from the Migrator's own seeded stream in queue
/// order, and queues are ordered maps keyed by source id — the whole
/// process is a pure function of (seed, membership-op order, sim state).
class Migrator {
 public:
  Migrator(Cluster* cluster, uint64_t seed);

  /// Enqueues the transfers implied by the membership change from
  /// `old_ring` to the cluster's *current* ring and starts (or extends) the
  /// per-source streams. Call immediately after mutating the cluster ring.
  void OnMembershipChange(const ConsistentHashRing& old_ring);

  /// Transfers dispatched but not yet applied or abandoned.
  int64_t outstanding() const { return outstanding_; }

  /// True while any transfer is queued or in flight.
  bool active() const;

  /// @internal Delivery bookkeeping (bound into network callbacks).
  void NoteDelivered();

 private:
  struct Transfer {
    Key key = 0;
    NodeId src = 0;
    NodeId dst = 0;
    int attempts = 0;
  };

  /// Ships one batch of transfers from `src`'s queue, then
  /// reschedules itself after stream_interval_ms until the queue drains.
  void PumpStream(NodeId src);

  /// Sends one transfer; re-queues it on a network drop (bounded retries).
  void Dispatch(Transfer transfer);

  /// Fires Cluster::OnRebalanceDrained once everything ran dry.
  void MaybeFinishRebalance();

  Cluster* cluster_;
  Rng rng_;
  std::map<NodeId, std::deque<Transfer>> queues_;  // ordered: deterministic
  std::map<NodeId, bool> stream_scheduled_;
  int64_t outstanding_ = 0;
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_MIGRATION_H_
