#include "kvs/rebalance_experiment.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "kvs/client.h"
#include "kvs/experiment.h"
#include "obs/exporters.h"
#include "util/stats.h"

namespace pbs {
namespace kvs {

Status RebalanceRunOptions::Validate() const {
  Status status = cluster.Validate();
  if (!status.ok()) return status;
  if (keys < 1) return Status::InvalidArgument("rebalance.keys must be >= 1");
  if (writes < 1) {
    return Status::InvalidArgument("rebalance.writes must be >= 1");
  }
  if (write_spacing_ms <= 0.0) {
    return Status::InvalidArgument("rebalance.write_spacing_ms must be > 0");
  }
  if (read_offset_ms < 0.0) {
    return Status::InvalidArgument("rebalance.read_offset_ms must be >= 0");
  }
  if (join_nodes < 0 || remove_nodes < 0) {
    return Status::InvalidArgument(
        "rebalance.join_nodes / remove_nodes must be >= 0");
  }
  if (churn_at_fraction <= 0.0 || churn_at_fraction >= 1.0) {
    return Status::InvalidArgument(
        "rebalance.churn_at_fraction must be in (0, 1)");
  }
  return Status::Ok();
}

namespace {

/// Phase of a probe read relative to the membership churn.
enum class Phase { kBefore, kDuring, kAfter };

void RecordProbe(RebalancePhaseStats* stats, int64_t expected,
                 int64_t observed) {
  ++stats->reads;
  if (observed < expected) {
    ++stats->stale_reads;
    stats->version_lag += expected - observed;
  }
}

/// |current \ previous| for two preference lists (n is small: linear scan).
int NewAssignments(const std::vector<int>& previous,
                   const std::vector<int>& current) {
  int moved = 0;
  for (int node : current) {
    if (std::find(previous.begin(), previous.end(), node) == previous.end()) {
      ++moved;
    }
  }
  return moved;
}

}  // namespace

RebalanceRunSummary RunRebalanceExperiment(const RebalanceRunOptions& options,
                                           obs::Registry* registry) {
  assert(options.Validate().ok());

  KvsConfig config = options.cluster;
  config.num_coordinators = 2;  // [0]: writer proxy, [1]: reader proxy
  config.seed = options.seed;
  Cluster cluster(config);
  cluster.StartAntiEntropy();

  ClientSession writer(&cluster, cluster.coordinator(0).id(), /*client_id=*/1);
  ClientSession reader(&cluster, cluster.coordinator(1).id(), /*client_id=*/2);

  RebalanceRunSummary summary;
  const int n = config.quorum.n;

  // Highest acknowledged sequence per key (index key-1); the freshness
  // oracle for probe reads and the zero-loss verification pass.
  std::vector<int64_t> max_acked(options.keys, 0);

  bool churn_fired = false;
  // Pre-churn ring snapshot (for the moved-fraction measurement) and the
  // membership sizes either side of the churn.
  std::vector<ConsistentHashRing> pre_ring;
  int members_before = cluster.num_storage_members();

  const auto phase_now = [&]() {
    if (!churn_fired) return Phase::kBefore;
    return cluster.rebalance_active() ? Phase::kDuring : Phase::kAfter;
  };
  const auto stats_for = [&](Phase phase) -> RebalancePhaseStats* {
    switch (phase) {
      case Phase::kBefore: return &summary.before;
      case Phase::kDuring: return &summary.during;
      default: return &summary.after;
    }
  };

  // The write stream: key i cycles round-robin, each ack launches one probe
  // read at the configured offset.
  for (int i = 1; i <= options.writes; ++i) {
    const double start = static_cast<double>(i) * options.write_spacing_ms;
    const Key key = static_cast<Key>(1 + (i - 1) % options.keys);
    cluster.sim().At(start, [&, i, key]() {
      writer.Write(key, "v" + std::to_string(i),
                   [&, key](const WriteResult& write_result) {
        if (!write_result.ok) {
          ++summary.writes_failed;
          return;
        }
        ++summary.writes_acked;
        max_acked[key - 1] = std::max(max_acked[key - 1],
                                      write_result.sequence);
        cluster.sim().Schedule(options.read_offset_ms, [&, key]() {
          // Freshness target and shard primary captured at probe start.
          const int64_t expected = max_acked[key - 1];
          const std::vector<NodeId> route = cluster.RoutingReplicasFor(key);
          const NodeId shard = route.empty() ? 0 : route.front();
          reader.Read(key, [&, key, expected, shard](
                               const ReadResult& read_result) {
            if (!read_result.ok) {
              ++summary.probe_reads_failed;
              return;
            }
            const int64_t observed = read_result.value.has_value()
                                         ? read_result.value->sequence
                                         : 0;
            RecordProbe(stats_for(phase_now()), expected, observed);
            RecordProbe(&summary.per_shard[shard], expected, observed);
          });
        });
      });
    });
  }

  // The churn point: joins and removals fire at the *same instant*, so their
  // rebalances overlap (union routing spans three placement epochs while
  // both drain). The offset keeps the churn instant off the op-issuance and
  // result-resolution grid (multiples of spacing/2 under point-mass legs):
  // a result resolving at the same instant as the membership change would
  // already carry the new ring version, and the clients would never issue a
  // request with a stale one.
  const int churn_index = std::clamp(
      static_cast<int>(options.writes * options.churn_at_fraction), 1,
      options.writes);
  const double churn_time =
      (static_cast<double>(churn_index) + 0.625) * options.write_spacing_ms;
  if (options.join_nodes > 0 || options.remove_nodes > 0) {
    cluster.sim().At(churn_time, [&]() {
      churn_fired = true;
      pre_ring.push_back(cluster.ring());
      members_before = cluster.num_storage_members();
      // Victims come from the pre-churn membership (highest ids first), so
      // removals always drain genuinely-owned data, never a just-joined
      // empty node.
      const std::vector<int> victims = cluster.StorageMembers();
      for (int j = 0; j < options.join_nodes; ++j) {
        const StatusOr<NodeId> added = cluster.AddStorageNode();
        assert(added.ok());
        (void)added;
      }
      for (int r = 0; r < options.remove_nodes; ++r) {
        if (r >= static_cast<int>(victims.size())) break;
        const Status removed = cluster.RemoveStorageNode(
            victims[victims.size() - 1 - static_cast<size_t>(r)]);
        assert(removed.ok());
        (void)removed;
      }
    });
  }

  // Drain the workload, then keep stepping until every rebalance settles
  // (migration streams pace themselves; bound the wait regardless).
  double horizon =
      DrainHorizonMs(options.writes, options.write_spacing_ms,
                     {&options.read_offset_ms, 1}, config.request_timeout_ms);
  cluster.sim().RunUntil(horizon);
  const double drain_step =
      std::max(4.0 * config.rebalance.stream_interval_ms, 100.0);
  for (int step = 0; step < 1000 && cluster.rebalance_active(); ++step) {
    horizon += drain_step;
    cluster.sim().RunUntil(horizon);
  }

  // Zero-loss verification: read every written key back through the settled
  // ring; an acked write whose verification read comes back older (or not at
  // all) is lost.
  for (int k = 0; k < options.keys; ++k) {
    if (max_acked[k] == 0) continue;
    const Key key = static_cast<Key>(k + 1);
    cluster.sim().Schedule(static_cast<double>(k), [&, key]() {
      const int64_t expected = max_acked[key - 1];
      reader.Read(key, [&, expected](const ReadResult& read_result) {
        const int64_t observed =
            read_result.ok && read_result.value.has_value()
                ? read_result.value->sequence
                : 0;
        if (observed < expected) ++summary.lost_acked_writes;
      });
    });
  }
  cluster.sim().RunUntil(horizon + static_cast<double>(options.keys) +
                         3.0 * config.request_timeout_ms);

  // Membership / migration counters.
  const ClusterMetrics& m = cluster.metrics();
  summary.nodes_joined = m.nodes_joined;
  summary.nodes_removed = m.nodes_removed;
  summary.rebalances_started = m.rebalances_started;
  summary.rebalances_completed = m.rebalances_completed;
  summary.migration_transfers_sent = m.migration_transfers_sent;
  summary.migration_transfers_delivered = m.migration_transfers_delivered;
  summary.migration_transfers_dropped = m.migration_transfers_dropped;
  summary.stale_routes_forwarded = m.stale_routes_forwarded;
  summary.final_ring_version = cluster.ring_version();
  summary.final_storage_members = cluster.num_storage_members();

  // Key movement vs. the consistent-hashing minimum. moved_fraction counts
  // changed (key, replica-slot) assignments over the workload's key
  // population; the theoretical minimum for adding A into S1 members and
  // removing D from S0 is A/S1 + D/S0 of all assignments.
  if (!pre_ring.empty()) {
    int moved = 0;
    int compared = 0;
    for (int k = 0; k < options.keys; ++k) {
      const Key key = static_cast<Key>(k + 1);
      const StatusOr<std::vector<int>> old_list =
          pre_ring.front().PreferenceList(key, n);
      const StatusOr<std::vector<int>> new_list =
          cluster.ring().PreferenceList(key, n);
      if (!old_list.ok() || !new_list.ok()) continue;
      moved += NewAssignments(old_list.value(), new_list.value());
      compared += n;
    }
    if (compared > 0) {
      summary.moved_fraction =
          static_cast<double>(moved) / static_cast<double>(compared);
    }
    const int members_after = cluster.num_storage_members();
    summary.theoretical_min_fraction =
        static_cast<double>(options.join_nodes) /
            static_cast<double>(members_after) +
        static_cast<double>(options.remove_nodes) /
            static_cast<double>(members_before);
  }

  // Migration equivalence: the mutated ring must place every workload key
  // exactly like a fresh ring rebuilt from (seed, final membership) — the
  // deterministic-rebuild contract of the membership log.
  summary.placement_matches_fresh_ring = [&]() {
    const StatusOr<ConsistentHashRing> fresh =
        ConsistentHashRing::CreateFromMembers(cluster.StorageMembers(),
                                              config.vnodes_per_node,
                                              config.seed ^ 0x9E37);
    if (!fresh.ok()) return false;
    for (int k = 0; k < options.keys; ++k) {
      const Key key = static_cast<Key>(k + 1);
      const StatusOr<std::vector<int>> live =
          cluster.ring().PreferenceList(key, n);
      const StatusOr<std::vector<int>> rebuilt =
          fresh.value().PreferenceList(key, n);
      if (!live.ok() || !rebuilt.ok()) return false;
      if (live.value() != rebuilt.value()) return false;
    }
    return true;
  }();

  if (registry != nullptr) cluster.ExportMetrics(registry);
  return summary;
}

RebalanceCampaignResult RunRebalanceTrials(const RebalanceTrialOptions& options,
                                           const PbsExecutionOptions& exec) {
  assert(options.trials >= 1);
  struct TrialOutput {
    RebalanceRunSummary summary;
    obs::Registry registry;
  };
  // One draw per trial: the trial's experiment seed.
  std::vector<TrialOutput> outputs =
      ParallelTrials(options.trials, options.seed, exec, [&](Rng& stream) {
        RebalanceRunOptions run = options.run;
        run.seed = stream.Next();
        TrialOutput out;
        out.summary = RunRebalanceExperiment(run, &out.registry);
        return out;
      });

  RebalanceCampaignResult result;
  result.trials.reserve(options.trials);
  obs::Registry campaign_registry;
  for (TrialOutput& out : outputs) {  // trial order: deterministic merge
    const RebalanceRunSummary& s = out.summary;
    result.before.reads += s.before.reads;
    result.before.stale_reads += s.before.stale_reads;
    result.before.version_lag += s.before.version_lag;
    result.during.reads += s.during.reads;
    result.during.stale_reads += s.during.stale_reads;
    result.during.version_lag += s.during.version_lag;
    result.after.reads += s.after.reads;
    result.after.stale_reads += s.after.stale_reads;
    result.after.version_lag += s.after.version_lag;
    result.lost_acked_writes += s.lost_acked_writes;
    campaign_registry.Merge(out.registry);
    result.trials.push_back(std::move(out.summary));
  }
  result.metrics_jsonl = obs::MetricsJsonl(campaign_registry);
  return result;
}

}  // namespace kvs
}  // namespace pbs
