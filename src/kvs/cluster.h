#ifndef PBS_KVS_CLUSTER_H_
#define PBS_KVS_CLUSTER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/adaptive.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "dist/production.h"
#include "kvs/failure_detector.h"
#include "kvs/metrics.h"
#include "kvs/node.h"
#include "kvs/options.h"
#include "kvs/profiler.h"
#include "kvs/rates.h"
#include "kvs/ring.h"
#include "kvs/version_arena.h"
#include "obs/exporters.h"
#include "obs/monitor.h"
#include "obs/options.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pbs {
namespace kvs {

class Migrator;

/// Configuration of a simulated Dynamo-style cluster.
struct KvsConfig {
  /// Replication parameters: N storage replicas, first-W-acks commit,
  /// first-R-responses read.
  QuorumConfig quorum;

  /// One-way message delay distributions per WARS leg (w: write request,
  /// a: write ack, r: read request, s: read response).
  WarsDistributions legs;

  /// Dedicated non-storage coordinator nodes (Dynamo-style proxies). Client
  /// operations enter through these; ids follow the replica ids.
  int num_coordinators = 1;

  /// Read repair (Section 4.2): after a read's late responses arrive, the
  /// coordinator asynchronously rewrites stale replicas with the freshest
  /// version it saw.
  bool read_repair = false;

  /// Gossip anti-entropy (Merkle-exchange stand-in): every interval each
  /// replica syncs with one random peer. 0 disables.
  double anti_entropy_interval_ms = 0.0;

  /// Hinted handoff: a write coordinator that misses acknowledgments by the
  /// timeout keeps re-sending the write to the unacknowledged replicas.
  /// Re-sends back off exponentially from `backoff_base` doubling up to
  /// `backoff_max`, each delay scaled by a deterministic jitter factor in
  /// [0.5, 1) drawn from the coordinator's seeded stream — so a fleet of
  /// stalled writes does not re-synchronize into retry storms, and runs
  /// stay reproducible.
  bool hinted_handoff = false;
  double hinted_handoff_backoff_base_ms = 50.0;
  double hinted_handoff_backoff_max_ms = 2000.0;
  int hinted_handoff_max_retries = 20;

  /// Read fan-out policy (Section 2.3): Dynamo sends reads to all N and
  /// keeps the first R responses; Voldemort (kQuorumOnly) sends to a random
  /// R-subset and waits for all of it — fewer messages, no late responses
  /// (so no read repair or staleness detection), higher read latency.
  ReadFanout read_fanout = ReadFanout::kAllN;

  /// Coordinator-side operation timeout.
  double request_timeout_ms = 10000.0;

  /// Hedged reads (rapid read protection); see pbs::HedgeOptions.
  HedgeOptions hedge;

  /// Client-side retry policy (consumed by ClientSession); see
  /// pbs::RetryOptions.
  RetryOptions retry;

  /// Observability: causal op tracing policy (see obs/options.h). RNG
  /// neutral — enabling tracing never changes a seeded run's results.
  ObsOptions obs;

  /// Elastic-membership rebalancing policy (migration pacing, transfer
  /// retries, decommission-on-drain); see pbs::RebalanceOptions.
  RebalanceOptions rebalance;

  /// Virtual tokens per node on the consistent-hash ring.
  int vnodes_per_node = 16;

  /// Storage nodes in the cluster; each key's home replica set is the
  /// first N of its ring preference list. 0 means exactly N nodes (the
  /// minimal deployment used by most experiments). Must be >= quorum.n.
  int num_storage_nodes = 0;

  /// Dynamo-style sloppy quorums: when the heartbeat detector suspects a
  /// home replica, the write coordinator substitutes the next healthy node
  /// from the extended preference list; the substitute holds the write as a
  /// *hint* and forwards it to the home replica once it looks alive again.
  /// Requires StartFailureDetector() and extra storage nodes to substitute
  /// from (num_storage_nodes > quorum.n, or sloppy_extra falls back to
  /// whatever exists).
  bool sloppy_quorums = false;
  int sloppy_extra = 2;            // substitutes considered beyond N
  double hint_delivery_interval_ms = 100.0;

  /// Failure detection (used by sloppy quorums; also available standalone
  /// via Cluster::StartFailureDetector). kHeartbeat suspects after a fixed
  /// silence; kPhiAccrual accrues suspicion from the empirical pong
  /// inter-arrival distribution (threshold/floor below).
  enum class FailureDetectorKind { kHeartbeat, kPhiAccrual };
  FailureDetectorKind failure_detector = FailureDetectorKind::kHeartbeat;
  double heartbeat_interval_ms = 100.0;
  double suspect_timeout_ms = 400.0;   // kHeartbeat
  double phi_threshold = 8.0;          // kPhiAccrual: suspect at φ >= this
  double phi_min_std_ms = 2.0;
  // kPhiAccrual silence backstop in heartbeat intervals (<= 0 disables);
  // bounds detection of nodes silent from t = 0 or after a poisoned window.
  double phi_max_silence_intervals = 25.0;

  /// Declared consistency/latency SLA the closed-loop controller steers
  /// toward (pbs::SlaTarget; disabled by default). Freshness measurement
  /// and the controller both key off this.
  SlaTarget sla;

  /// Closed-loop consistency controller policy (pbs::ControllerOptions;
  /// disabled by default). When enabled the experiment harness runs a
  /// kvs::ConsistencyController inside the cluster.
  ControllerOptions controller;

  uint64_t seed = 42;

  /// Full structural validation, Status-returning (the pbs::Config path to
  /// constructing clusters without tripping the constructor asserts):
  /// quorum shape, leg distributions present, node counts, hedge/retry/obs
  /// sub-options.
  Status Validate() const;
};

/// A complete simulated cluster: replicas + coordinators + network + ring +
/// metrics, driven by one discrete-event Simulator. This is the stand-in for
/// the modified Cassandra deployment of Section 5.2.
class Cluster {
 public:
  /// Lifecycle of a storage node on the elastic ring. Joining/leaving nodes
  /// are ring members/ex-members with a rebalance still draining; kActive /
  /// kRemoved are the settled states.
  enum class NodeState { kJoining, kActive, kLeaving, kRemoved };

  /// One entry of the membership log: (virtual time, node, new state, ring
  /// version after the change). Replaying the log's member set through
  /// ConsistentHashRing::CreateFromMembers rebuilds placement bit-exactly.
  struct MembershipEvent {
    double time_ms = 0.0;
    NodeId node = 0;
    NodeState state = NodeState::kActive;
    uint64_t ring_version = 0;
  };
  using MembershipHook = std::function<void(const MembershipEvent&)>;

  explicit Cluster(const KvsConfig& config);
  ~Cluster();

  // Not movable: nodes hold back-pointers.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const KvsConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }
  Network& network() { return *network_; }
  ClusterMetrics& metrics() { return metrics_; }
  const ClusterMetrics& metrics() const { return metrics_; }

  /// Storage nodes the cluster *started* with (>= quorum.n). Fixed for the
  /// cluster's lifetime: node ids [0, num_replicas()) are the initial
  /// replicas and coordinator ids follow them, so this anchors the id
  /// layout even after elastic joins/removals. For the current ring
  /// membership use StorageMembers().
  int num_replicas() const { return num_storage_nodes_; }
  int num_coordinators() const { return config_.num_coordinators; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  Node& node(NodeId id) { return *nodes_[id]; }
  /// i-th storage replica (i in [0, N)).
  Node& replica(int i) { return *nodes_[i]; }
  /// i-th dedicated coordinator (i in [0, num_coordinators())).
  Node& coordinator(int i) { return *nodes_[num_replicas() + i]; }

  /// The key's N-replica home preference list from the consistent-hash
  /// ring.
  std::vector<NodeId> ReplicasFor(Key key) const;

  /// The extended preference list (home replicas + up to sloppy_extra
  /// substitutes), used by sloppy-quorum writes.
  std::vector<NodeId> ExtendedReplicasFor(Key key) const;

  /// Replica set coordinators fan out to: the current-ring preference list
  /// (always the prefix, so `[0]` is the key's primary/shard owner),
  /// extended with old-epoch replicas while any rebalance is draining.
  /// Routing through the *union* of epochs is what keeps every acknowledged
  /// write readable mid-rebalance: a write lands on enough of both replica
  /// sets, and a read quorum over the union must intersect it.
  std::vector<NodeId> RoutingReplicasFor(Key key) const;

  /// Allocation-free variants of the replica-list queries: `out` is cleared
  /// and refilled, so a caller that reuses the same vector (the coordinator
  /// hot path keeps one per pooled operation slot) pays no allocation once
  /// its capacity has warmed up.
  void RoutingReplicasForInto(Key key, std::vector<NodeId>* out) const;
  void ExtendedReplicasForInto(Key key, std::vector<NodeId>* out) const;

  /// Pooled payload slots shared by every coordinator on this cluster: write
  /// fan-out, read responses and read repair carry VersionRef handles
  /// through their message closures instead of copying VersionedValue into
  /// each capture. See kvs/version_arena.h for the lifetime rules.
  VersionArena& version_arena() { return version_arena_; }

  // -- Elastic membership (ROADMAP item 1) ----------------------------------

  /// Adds a brand-new storage node to the ring and starts a background
  /// rebalance streaming its newly owned ranges to it. Returns the new
  /// node's id (ids continue past the coordinators; the initial id layout
  /// is untouched). The node starts in NodeState::kJoining and becomes
  /// kActive once the rebalance drains.
  StatusOr<NodeId> AddStorageNode();

  /// Removes a storage node from the ring and starts a background rebalance
  /// draining its ranges to their new owners. The node keeps serving
  /// (NodeState::kLeaving) until the drain completes, then is marked
  /// kRemoved — and decommissioned (fail-stop) when
  /// rebalance.decommission_removed is set. Errors: NotFound for a node
  /// that is not a current ring member (coordinators included),
  /// FailedPrecondition when removal would leave fewer members than
  /// quorum.n.
  Status RemoveStorageNode(NodeId id);

  /// Current storage membership of the ring, sorted ascending.
  const std::vector<int>& StorageMembers() const { return ring_.members(); }
  int num_storage_members() const { return ring_.num_nodes(); }

  /// Current ring version (1 at construction, +1 per membership change; 0
  /// is the wire sentinel for "client has not observed a version yet").
  /// Clients cache it; coordinators count ops carrying an older version as
  /// stale_routes_forwarded.
  uint64_t ring_version() const { return ring_.version(); }

  /// True while at least one membership change is still migrating data
  /// (union routing in effect).
  bool rebalance_active() const { return !previous_rings_.empty(); }

  /// Read-only view of the ring (placement policy inspection).
  const ConsistentHashRing& ring() const { return ring_; }

  /// Every membership transition so far, in virtual-time order.
  const std::vector<MembershipEvent>& membership_log() const {
    return membership_log_;
  }

  /// Observer invoked synchronously on each membership transition (node
  /// state events). May be null.
  void set_membership_hook(MembershipHook hook) {
    membership_hook_ = std::move(hook);
  }

  /// @internal Migration bookkeeping (called by Migrator): a transfer was
  /// applied at `dst` / the active rebalance fully drained.
  void OnMigrationDelivered(NodeId dst);
  void OnRebalanceDrained();
  Migrator* migrator() { return migrator_.get(); }

  /// Starts the configured failure detector (idempotent; see
  /// KvsConfig::failure_detector for the heartbeat/φ-accrual choice). The
  /// detector task reschedules itself forever: drive the simulation with
  /// RunUntil.
  void StartFailureDetector();
  FailureDetector* failure_detector() { return failure_detector_.get(); }

  /// Live reconfiguration (Section 6 "Variable configurations"): changes
  /// the read/write response requirements for operations *started after*
  /// this call (in-flight operations keep the quorum they began with). N is
  /// fixed at construction. Returns InvalidArgument for out-of-range sizes.
  Status UpdateQuorum(int r, int w);

  /// Live latency-regime change: subsequent message legs sample from
  /// `legs`. Models environment drift (e.g. a disk->SSD migration) for the
  /// adaptive-controller loop.
  void UpdateLegs(const WarsDistributions& legs);

  // -- Closed-loop controller actuation (ROADMAP item 3) --------------------

  /// McKenzie-style fractional read quorums: reads started after this call
  /// use R = `r_lo` with probability `probability`, else R = `r_hi`
  /// (in-flight reads keep theirs). Degenerate calls (r_lo == r_hi, or
  /// probability 0/1) collapse to a fixed R and consume no RNG draws on the
  /// read path — preserving the RNG-consumption contract for runs that
  /// never actually mix. Returns InvalidArgument for out-of-range sizes.
  Status UpdateReadMix(int r_lo, int r_hi, double probability);

  /// Current mixed-quorum state (n/w mirror the live config).
  const MixedQuorum& read_mix() const { return read_mix_; }

  /// Live hedge-policy change: reads started after this call derive their
  /// hedge delay from the new options.
  Status UpdateHedge(const HedgeOptions& hedge);

  /// Live retry-policy change: client attempts started after this call
  /// consume the new budget (ClientSession reads the policy per attempt).
  Status UpdateRetry(const RetryOptions& retry);

  /// The R requirement for a read of `key` starting now: the configured
  /// quorum.r, or a mix draw when fractional mixing is active. Counted in
  /// metrics as mixed_reads_lo/hi while mixing.
  int EffectiveReadQuorumFor(Key key);

  /// Freshness measurement for the controller and the drift monitor
  /// (active only when one of them is enabled and config.sla is set;
  /// otherwise free). RecordCommit logs (key, sequence, commit time) into a
  /// fixed commit ring; RecordReadOutcome classifies a finished read as
  /// fresh/stale within the SLA's staleness bound against that ring and
  /// counts it in metrics().reads_fresh_measured / reads_stale_measured.
  void RecordCommit(Key key, int64_t sequence, double commit_time);
  void RecordReadOutcome(Key key, int64_t returned_sequence,
                         double read_start_time);

  /// Monotonically increasing request identifier.
  uint64_t NextRequestId() { return next_request_id_++; }

  /// Next version sequence number for `key` (1, 2, 3, ...). Sequences give
  /// every key a global total version order — the "k versions" axis of the
  /// staleness metrics. (The simulation is single-threaded, so a cluster-
  /// side counter stands in for whatever ordering mechanism — coordinator
  /// designation, consensus — a real deployment would use.) Also feeds the
  /// per-key write-rate estimator (Section 3.2's gamma_gw).
  int64_t NextSequenceFor(Key key);

  /// Measured global write rate for `key` in writes/ms (gamma_gw of
  /// Equation 3); 0 until two writes have been observed.
  double WriteRatePerMsFor(Key key) const;

  /// Highest sequence handed out for `key` so far.
  int64_t LatestSequenceFor(Key key) const;

  /// Observer invoked once per read after late responses are collected
  /// (feeds the Section 4.3 staleness detector). May be null.
  void set_late_read_hook(LateReadHook hook) {
    late_read_hook_ = std::move(hook);
  }
  const LateReadHook& late_read_hook() const { return late_read_hook_; }

  /// Optional online WARS leg profiler (Section 5.5 "measure online"); the
  /// cluster records every quorum-operation message delay into it. Not
  /// owned; must outlive the cluster or be reset to null.
  void set_leg_profiler(LegProfiler* profiler) { leg_profiler_ = profiler; }
  LegProfiler* leg_profiler() const { return leg_profiler_; }

  /// Starts the periodic anti-entropy process (no-op when the configured
  /// interval is 0).
  void StartAntiEntropy();

  /// The cluster's causal operation tracer (configured from config.obs at
  /// construction; disabled tracers cost one branch per record site).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Exports every cluster-level instrument into `out` under stable names:
  /// ClusterMetrics counters ("kvs/..."), operation latency histograms,
  /// network traffic ("net/..."), simulator progress ("sim/...") and, when
  /// a LegProfiler is attached, per-leg delay histograms ("legs/...").
  /// Deterministic given a deterministic run.
  void ExportMetrics(obs::Registry* out) const;

  // -- Streaming telemetry (DESIGN.md §13) ----------------------------------

  /// Starts the windowed time-series cut (and, when obs.monitor_enabled,
  /// the live predictor-drift monitor). No-op when obs.telemetry_window_ms
  /// is 0; idempotent otherwise. The tick reschedules itself forever, is
  /// driven off the timer wheel, reads only counters (never the RNG), and
  /// costs O(new samples in the window) — so telemetry-on runs produce the
  /// same operation outcomes as telemetry-off runs.
  void StartTelemetry();

  /// The telemetry ring / monitor; null until StartTelemetry ran on a
  /// config that enables them.
  const obs::TimeSeries* timeseries() const { return timeseries_.get(); }
  /// Mutable access for end-of-run harvesting (the experiment harness moves
  /// the series out instead of deep-copying dense-histogram windows).
  obs::TimeSeries* mutable_timeseries() { return timeseries_.get(); }
  const obs::ConsistencyMonitor* monitor() const { return monitor_.get(); }

  /// Snapshot provenance: the controller (or the monitor's analytic fit)
  /// records which predictor backend answered last and which decision is in
  /// force; MetricsHeader composes them for the metrics-JSONL "meta" line.
  void set_active_decision_id(int64_t id) { active_decision_id_ = id; }
  int64_t active_decision_id() const { return active_decision_id_; }
  void set_predictor_provenance(const std::string& backend,
                                const std::string& note) {
    predictor_backend_ = backend;
    predictor_note_ = note;
  }
  obs::MetricsSnapshotHeader MetricsHeader() const;

 private:
  /// Visits every exported counter in a fixed order (the static cluster
  /// table, then per-shard rows in shard order) as fn(name, value). The
  /// single source of truth behind both ExportCounters and the telemetry
  /// tick's flat snapshot diff. Instantiated only in cluster.cc.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const;

  /// The counter subset of ExportMetrics (cluster, per-shard, network,
  /// simulator, tracer). The expensive histogram rebuilds stay in
  /// ExportMetrics.
  void ExportCounters(obs::Registry* out) const;

  /// One telemetry window: measure the monitor sample from counter deltas,
  /// refresh the cached analytic prediction if the fit went stale, cut a
  /// cumulative-registry delta into the time-series ring, reschedule.
  void TelemetryTick();
  void RefreshMonitorPrediction();
  /// Appends `state` for `node` to the membership log and fires the hook.
  void LogMembership(NodeId node, NodeState state);

  /// Records the pre-change ring snapshot and kicks the migrator.
  void BeginRebalance(ConsistentHashRing snapshot);

  // Declared first so it is destroyed last: pending ops, storage, hints and
  // in-flight message closures in sim_ all hold VersionRefs into it.
  VersionArena version_arena_;
  KvsConfig config_;
  int num_storage_nodes_;
  Simulator sim_;
  std::unique_ptr<Network> network_;
  ConsistentHashRing ring_;
  std::unique_ptr<FailureDetector> failure_detector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  ClusterMetrics metrics_;
  obs::Tracer tracer_;
  LateReadHook late_read_hook_;
  LegProfiler* leg_profiler_ = nullptr;
  uint64_t next_request_id_ = 1;
  // Scratch for RoutingReplicasForInto's previous-ring walk; mutable because
  // the query is logically const and the simulation is single-threaded.
  mutable std::vector<int> routing_scratch_;
  std::unordered_map<Key, int64_t> sequence_counters_;
  std::unordered_map<Key, RateEstimator> write_rates_;
  Rng anti_entropy_rng_;

  // Closed-loop controller state. The mix RNG is a dedicated salted stream
  // consumed only while fractional mixing is active, so controller-off (and
  // mix-inactive) runs reproduce the feature-absent draw sequences bitwise.
  MixedQuorum read_mix_;
  bool mixing_active_ = false;
  Rng mix_rng_;
  struct CommitRecord {
    Key key = 0;
    int64_t sequence = 0;
    double commit_time = 0.0;
  };
  static constexpr int kCommitRingDepth = 8;
  std::array<CommitRecord, kCommitRingDepth> commit_ring_{};
  int commit_ring_next_ = 0;
  bool freshness_enabled_ = false;

  // Elastic membership state. `previous_rings_` holds the pre-change
  // snapshot of every membership change whose migration is still draining
  // (overlapping changes stack; all cleared together when the migrator runs
  // dry). Seeds for nodes created after construction come from
  // membership_rng_, so elastic runs stay deterministic in (seed,
  // membership-op order) without perturbing the construction-time draws.
  std::unique_ptr<Migrator> migrator_;
  std::vector<ConsistentHashRing> previous_rings_;
  std::vector<NodeId> joining_;
  std::vector<NodeId> leaving_;
  std::vector<MembershipEvent> membership_log_;
  MembershipHook membership_hook_;
  Rng membership_rng_;

  // Streaming telemetry state (DESIGN.md §13). A tick is O(samples in the
  // window): counters diff as flat value snapshots against the previous cut
  // (one integer compare per row in the steady state), and the window's op
  // histograms are recorded directly from the window's latency slices.
  // Per-shard and per-leg histograms are deliberately excluded from the
  // windowed series.
  bool telemetry_started_ = false;
  std::unique_ptr<obs::TimeSeries> timeseries_;
  std::unique_ptr<obs::ConsistencyMonitor> monitor_;
  std::unique_ptr<LegProfiler> telemetry_profiler_;  // owned fallback source
  int64_t telemetry_window_index_ = 0;
  size_t telemetry_read_seen_ = 0;
  size_t telemetry_write_seen_ = 0;
  int64_t telemetry_fresh_seen_ = 0;
  int64_t telemetry_stale_seen_ = 0;
  int64_t telemetry_failed_seen_ = 0;
  int64_t telemetry_hedges_seen_ = 0;
  int64_t telemetry_retries_seen_ = 0;
  size_t telemetry_alerts_seen_ = 0;
  std::vector<std::string> telemetry_counter_names_;  // flat snapshot rows
  std::vector<int64_t> telemetry_counter_prev_;       // parallel values

  // Cached analytic prediction for the monitor: refit only when the active
  // quorum changed or any leg's sample count grew >= 25% past the last fit,
  // so a mid-run fault moves the measured side immediately while the
  // prediction keeps reflecting the pre-fault fit — which is exactly what
  // makes drift detectable.
  bool monitor_prediction_valid_ = false;
  MixedQuorumEvaluation monitor_prediction_;
  MixedQuorum monitor_fit_quorum_;
  std::array<size_t, LegProfiler::kNumLegs> monitor_fit_counts_{};

  // Snapshot provenance (MetricsHeader).
  std::string predictor_backend_;
  std::string predictor_note_;
  int64_t active_decision_id_ = -1;
};

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_CLUSTER_H_
