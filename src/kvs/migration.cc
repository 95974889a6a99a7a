#include "kvs/migration.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "kvs/cluster.h"
#include "kvs/metrics.h"
#include "kvs/node.h"

namespace pbs {
namespace kvs {
namespace {

// Transfers shipped per batch per source node.
constexpr int kKeysPerBatch = 64;
// Re-sends of a dropped transfer before the range is left to anti-entropy.
constexpr int kMaxTransferRetries = 3;

}  // namespace

Migrator::Migrator(Cluster* cluster, uint64_t seed)
    : cluster_(cluster), rng_(seed) {}

bool Migrator::active() const {
  if (outstanding_ > 0) return true;
  for (const auto& [src, queue] : queues_) {
    if (!queue.empty()) return true;
  }
  return false;
}

void Migrator::OnMembershipChange(const ConsistentHashRing& old_ring) {
  const int n = cluster_->config().quorum.n;
  ClusterMetrics& metrics = cluster_->metrics();
  // Donors are the old epoch's members: a joining node holds nothing yet,
  // and a leaving node must drain what it holds.
  std::vector<int> old_pref;
  std::vector<int> new_pref;
  for (int src : old_ring.members()) {
    Node& donor = cluster_->node(src);
    // Snapshot + sort the donor's keys so transfer order (and therefore
    // delay-stream consumption) is independent of hash-map layout.
    std::vector<Key> keys;
    keys.reserve(donor.storage().num_keys());
    donor.storage().ForEach(
        [&keys](Key key, const VersionedValue&) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    for (Key key : keys) {
      ++metrics.migration_keys_examined;
      if (!old_ring.AppendPreferenceList(key, n, &old_pref).ok()) continue;
      if (!cluster_->ring().AppendPreferenceList(key, n, &new_pref).ok()) {
        continue;
      }
      for (int dst : new_pref) {
        if (dst == src) continue;
        if (std::find(old_pref.begin(), old_pref.end(), dst) !=
            old_pref.end()) {
          continue;  // was already a replica: old epoch covers it
        }
        queues_[src].push_back(Transfer{key, src, dst, 0});
      }
    }
  }
  // Start a paced stream per source with a pending queue. An immediate
  // first pump keeps "no data to move" rebalances from waiting a full
  // stream interval to finish.
  for (auto& [src, queue] : queues_) {
    if (queue.empty() || stream_scheduled_[src]) continue;
    stream_scheduled_[src] = true;
    const NodeId source = src;
    cluster_->sim().Schedule(0.0, [this, source]() { PumpStream(source); });
  }
  MaybeFinishRebalance();
}

void Migrator::PumpStream(NodeId src) {
  auto it = queues_.find(src);
  if (it == queues_.end() || it->second.empty()) {
    stream_scheduled_[src] = false;
    MaybeFinishRebalance();
    return;
  }
  std::deque<Transfer>& queue = it->second;
  for (int i = 0; i < kKeysPerBatch && !queue.empty(); ++i) {
    Transfer transfer = queue.front();
    queue.pop_front();
    Dispatch(transfer);
  }
  if (queue.empty()) {
    stream_scheduled_[src] = false;
    MaybeFinishRebalance();
    return;
  }
  cluster_->sim().Schedule(cluster_->config().rebalance.stream_interval_ms,
                           [this, src]() { PumpStream(src); });
}

void Migrator::Dispatch(Transfer transfer) {
  ClusterMetrics& metrics = cluster_->metrics();
  Node& donor = cluster_->node(transfer.src);
  // Re-read at send time: a foreground write since enqueue ships the newer
  // version; a key the donor no longer holds has nothing to transfer.
  const std::optional<VersionedValue> value =
      donor.storage().Get(transfer.key);
  if (!value.has_value() || !donor.alive()) {
    // A crashed donor cannot stream; anti-entropy picks up the slack.
    ++metrics.migration_transfers_dropped;
    MaybeFinishRebalance();
    return;
  }
  ++metrics.migration_transfers_sent;
  ++outstanding_;
  const double delay =
      cluster_->config().legs.w->Sample(rng_);
  Node* receiver = &cluster_->node(transfer.dst);
  const Key key = transfer.key;
  const NodeId src = transfer.src;
  const VersionedValue shipped = *value;
  const bool sent = cluster_->network().SendWithDelay(
      transfer.src, transfer.dst, delay,
      [this, receiver, key, shipped, src]() {
        // Repair-style apply: LWW storage keeps newer foreground writes.
        receiver->HandleWriteRequest(key, shipped, src, /*request_id=*/0,
                                     /*is_repair=*/true);
        cluster_->OnMigrationDelivered(receiver->id());
        NoteDelivered();
      });
  if (!sent) {
    --outstanding_;
    if (transfer.attempts < kMaxTransferRetries) {
      ++metrics.migration_transfer_retries;
      ++transfer.attempts;
      queues_[transfer.src].push_back(transfer);
      if (!stream_scheduled_[transfer.src]) {
        stream_scheduled_[transfer.src] = true;
        const NodeId source = transfer.src;
        cluster_->sim().Schedule(
            cluster_->config().rebalance.stream_interval_ms,
            [this, source]() { PumpStream(source); });
      }
    } else {
      ++metrics.migration_transfers_dropped;
      MaybeFinishRebalance();
    }
  }
}

void Migrator::NoteDelivered() {
  assert(outstanding_ > 0);
  --outstanding_;
  MaybeFinishRebalance();
}

void Migrator::MaybeFinishRebalance() {
  if (active()) return;
  cluster_->OnRebalanceDrained();
}

}  // namespace kvs
}  // namespace pbs
