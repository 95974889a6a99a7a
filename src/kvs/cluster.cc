#include "kvs/cluster.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "core/backend.h"
#include "dist/empirical.h"
#include "kvs/anti_entropy.h"
#include "kvs/migration.h"
#include "util/stats.h"

namespace pbs {
namespace kvs {
namespace {

// Monitor fit bounds (see Cluster::RefreshMonitorPrediction): the fit
// stabilizes on a doubling schedule until every leg holds
// min_leg_samples * kMonitorFitStabilizeFactor samples, then freezes; each
// refit sorts at most kMonitorFitSampleCap samples per leg.
constexpr size_t kMonitorFitStabilizeFactor = 16;
constexpr size_t kMonitorFitSampleCap = 8192;

// Per-leg ring capacity for the telemetry-owned LegProfiler. Comfortably
// above kMonitorFitSampleCap (fits only read the newest samples) while
// keeping recording O(1) with bounded memory on long runs.
constexpr size_t kMonitorProfilerSampleCap = 16384;

// Type-7 interpolated quantile via selection — same arithmetic as
// util/stats.h QuantileSorted on the same data (bitwise identical result),
// but O(n) instead of the full sort the telemetry tick would otherwise pay
// per window. Scrambles `v`.
double QuantileSelect(std::vector<double>& v, double q) {
  const size_t n = v.size();
  if (q <= 0.0) return *std::min_element(v.begin(), v.end());
  if (q >= 1.0) return *std::max_element(v.begin(), v.end());
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(lo), v.end());
  const double at_lo = v[lo];
  if (frac == 0.0 || lo + 1 >= n) return at_lo;
  const double at_hi =
      *std::min_element(v.begin() + static_cast<ptrdiff_t>(lo) + 1, v.end());
  return at_lo + frac * (at_hi - at_lo);
}

}  // namespace

Status KvsConfig::Validate() const {
  const Status quorum_status = ValidateQuorumConfig(quorum);
  if (!quorum_status.ok()) return quorum_status;
  if (!legs.w || !legs.a || !legs.r || !legs.s) {
    return Status::InvalidArgument(
        "all four WARS leg distributions must be set (legs.w/a/r/s)");
  }
  if (num_coordinators < 1) {
    return Status::InvalidArgument("num_coordinators must be >= 1");
  }
  if (num_storage_nodes != 0 && num_storage_nodes < quorum.n) {
    return Status::InvalidArgument(
        "num_storage_nodes must be 0 (= N) or >= quorum.n");
  }
  if (vnodes_per_node < 1) {
    return Status::InvalidArgument("vnodes_per_node must be >= 1");
  }
  if (request_timeout_ms <= 0.0) {
    return Status::InvalidArgument("request_timeout_ms must be > 0");
  }
  if (anti_entropy_interval_ms < 0.0) {
    return Status::InvalidArgument("anti_entropy_interval_ms must be >= 0");
  }
  const Status hedge_status = hedge.Validate();
  if (!hedge_status.ok()) return hedge_status;
  const Status retry_status = retry.Validate();
  if (!retry_status.ok()) return retry_status;
  const Status rebalance_status = rebalance.Validate();
  if (!rebalance_status.ok()) return rebalance_status;
  const Status sla_status = sla.Validate();
  if (!sla_status.ok()) return sla_status;
  const Status controller_status = controller.Validate();
  if (!controller_status.ok()) return controller_status;
  if (controller.enabled && !sla.enabled()) {
    return Status::InvalidArgument(
        "controller.enabled requires a declared sla (fresh_probability > 0)");
  }
  if (obs.monitor_enabled && !sla.enabled()) {
    return Status::InvalidArgument(
        "obs.monitor_enabled requires a declared sla (fresh_probability > 0) "
        "to measure freshness against");
  }
  return obs.Validate();
}

Cluster::Cluster(const KvsConfig& config)
    : config_(config),
      num_storage_nodes_(config.num_storage_nodes > 0
                             ? config.num_storage_nodes
                             : config.quorum.n),
      ring_(num_storage_nodes_, config.vnodes_per_node,
            config.seed ^ 0x9E37),
      anti_entropy_rng_(config.seed ^ 0xAE0AE0),
      mix_rng_(config.seed ^ 0x3C0F1B),
      membership_rng_(config.seed ^ 0xE1A57C) {
  assert(config_.quorum.IsValid());
  assert(num_storage_nodes_ >= config_.quorum.n);
  assert(config_.num_coordinators >= 1);
  assert(config_.legs.w && config_.legs.a && config_.legs.r &&
         config_.legs.s);

  tracer_.Configure(config_.obs);
  read_mix_.n = config_.quorum.n;
  read_mix_.r_lo = config_.quorum.r;
  read_mix_.r_hi = config_.quorum.r;
  read_mix_.w = config_.quorum.w;
  read_mix_.mix = 0.0;
  // Freshness classification runs for the controller and/or the drift
  // monitor; both require a declared SLA (Validate enforces this for the
  // pbs::Config path).
  freshness_enabled_ =
      (config_.controller.enabled ||
       (config_.obs.monitor_enabled && config_.obs.telemetry_window_ms > 0.0)) &&
      config_.sla.enabled();
  Rng master(config_.seed);
  network_ = std::make_unique<Network>(&sim_, master.Next());
  const int total = num_replicas() + num_coordinators();
  nodes_.reserve(total);
  for (NodeId id = 0; id < total; ++id) {
    const bool is_replica = id < num_replicas();
    nodes_.push_back(
        std::make_unique<Node>(this, id, is_replica, master.Next()));
  }
}

Cluster::~Cluster() = default;

std::vector<NodeId> Cluster::ReplicasFor(Key key) const {
  StatusOr<std::vector<int>> list =
      ring_.PreferenceList(key, config_.quorum.n);
  // Membership operations refuse to shrink the ring below quorum.n, so the
  // checked ring path cannot fail here; the guard keeps a Release build
  // from ever routing to a short replica set if that invariant breaks.
  assert(list.ok());
  if (!list.ok()) return {};
  return std::move(list.value());
}

std::vector<NodeId> Cluster::RoutingReplicasFor(Key key) const {
  std::vector<NodeId> out;
  RoutingReplicasForInto(key, &out);
  return out;
}

void Cluster::RoutingReplicasForInto(Key key, std::vector<NodeId>* out) const {
  const Status current = ring_.AppendPreferenceList(key, config_.quorum.n, out);
  assert(current.ok());
  if (!current.ok()) out->clear();
  if (previous_rings_.empty()) return;
  for (const ConsistentHashRing& old_ring : previous_rings_) {
    if (!old_ring.AppendPreferenceList(key, config_.quorum.n,
                                       &routing_scratch_)
             .ok()) {
      continue;
    }
    for (int node : routing_scratch_) {
      if (std::find(out->begin(), out->end(), node) == out->end()) {
        out->push_back(node);
      }
    }
  }
}

StatusOr<NodeId> Cluster::AddStorageNode() {
  ConsistentHashRing snapshot = ring_;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  const Status added = ring_.AddNode(id);
  if (!added.ok()) return added;
  nodes_.push_back(std::make_unique<Node>(this, id, /*is_replica=*/true,
                                          membership_rng_.Next()));
  ++metrics_.nodes_joined;
  joining_.push_back(id);
  LogMembership(id, NodeState::kJoining);
  BeginRebalance(std::move(snapshot));
  return id;
}

Status Cluster::RemoveStorageNode(NodeId id) {
  if (!ring_.IsMember(id)) {
    return Status::NotFound("cluster: node " + std::to_string(id) +
                            " is not a storage member");
  }
  if (ring_.num_nodes() - 1 < config_.quorum.n) {
    return Status::FailedPrecondition(
        "cluster: removing node " + std::to_string(id) + " would leave " +
        std::to_string(ring_.num_nodes() - 1) +
        " storage members, fewer than N=" +
        std::to_string(config_.quorum.n));
  }
  ConsistentHashRing snapshot = ring_;
  const Status removed = ring_.RemoveNode(id);
  if (!removed.ok()) return removed;
  ++metrics_.nodes_removed;
  leaving_.push_back(id);
  LogMembership(id, NodeState::kLeaving);
  BeginRebalance(std::move(snapshot));
  return Status::Ok();
}

void Cluster::BeginRebalance(ConsistentHashRing snapshot) {
  ++metrics_.rebalances_started;
  previous_rings_.push_back(std::move(snapshot));
  if (migrator_ == nullptr) {
    migrator_ = std::make_unique<Migrator>(this, config_.seed ^ 0x316A70);
  }
  migrator_->OnMembershipChange(previous_rings_.back());
}

void Cluster::OnMigrationDelivered(NodeId dst) {
  ++metrics_.migration_transfers_delivered;
  ++metrics_.shards[dst].migration_keys_received;
}

void Cluster::OnRebalanceDrained() {
  if (previous_rings_.empty()) return;  // already settled
  // Overlapping membership changes drain together: completions match starts.
  metrics_.rebalances_completed +=
      static_cast<int64_t>(previous_rings_.size());
  previous_rings_.clear();
  for (NodeId id : joining_) LogMembership(id, NodeState::kActive);
  joining_.clear();
  for (NodeId id : leaving_) {
    LogMembership(id, NodeState::kRemoved);
    if (config_.rebalance.decommission_removed) nodes_[id]->Crash();
  }
  leaving_.clear();
}

void Cluster::LogMembership(NodeId node, NodeState state) {
  MembershipEvent event;
  event.time_ms = sim_.now();
  event.node = node;
  event.state = state;
  event.ring_version = ring_.version();
  membership_log_.push_back(event);
  if (membership_hook_) membership_hook_(event);
}

int64_t Cluster::NextSequenceFor(Key key) {
  write_rates_.try_emplace(key).first->second.Record(sim_.now());
  return ++sequence_counters_[key];
}

double Cluster::WriteRatePerMsFor(Key key) const {
  const auto it = write_rates_.find(key);
  return it == write_rates_.end() ? 0.0
                                  : it->second.EventsPerMs(sim_.now());
}

int64_t Cluster::LatestSequenceFor(Key key) const {
  const auto it = sequence_counters_.find(key);
  return it == sequence_counters_.end() ? 0 : it->second;
}

std::vector<NodeId> Cluster::ExtendedReplicasFor(Key key) const {
  std::vector<NodeId> out;
  ExtendedReplicasForInto(key, &out);
  return out;
}

void Cluster::ExtendedReplicasForInto(Key key,
                                      std::vector<NodeId>* out) const {
  const int extended =
      std::min(ring_.num_nodes(),
               config_.quorum.n + std::max(0, config_.sloppy_extra));
  const Status status = ring_.AppendPreferenceList(key, extended, out);
  assert(status.ok());
  if (!status.ok()) out->clear();
}

Status Cluster::UpdateQuorum(int r, int w) {
  QuorumConfig updated = config_.quorum;
  updated.r = r;
  updated.w = w;
  const Status valid = ValidateQuorumConfig(updated);
  if (!valid.ok()) return valid;
  config_.quorum = updated;
  return Status::Ok();
}

void Cluster::UpdateLegs(const WarsDistributions& legs) {
  assert(legs.w && legs.a && legs.r && legs.s);
  config_.legs = legs;
}

Status Cluster::UpdateReadMix(int r_lo, int r_hi, double probability) {
  if (r_lo < 1 || r_hi < r_lo || r_hi > config_.quorum.n) {
    return Status::InvalidArgument(
        "read mix: need 1 <= r_lo <= r_hi <= n, got r_lo=" +
        std::to_string(r_lo) + " r_hi=" + std::to_string(r_hi));
  }
  if (probability < 0.0 || probability > 1.0) {
    return Status::InvalidArgument("read mix: probability must be in [0, 1]");
  }
  read_mix_.n = config_.quorum.n;
  read_mix_.r_lo = r_lo;
  read_mix_.r_hi = r_hi;
  read_mix_.w = config_.quorum.w;
  read_mix_.mix = probability;
  mixing_active_ = read_mix_.mixing();
  if (!mixing_active_) {
    // Degenerate mix: collapse to the fixed quorum so the read path stays
    // draw-free. probability == 1 pins r_lo, anything else pins r_hi
    // (r_lo == r_hi makes the two identical).
    const int fixed_r = probability >= 1.0 ? r_lo : r_hi;
    return UpdateQuorum(fixed_r, config_.quorum.w);
  }
  return Status::Ok();
}

Status Cluster::UpdateHedge(const HedgeOptions& hedge) {
  const Status valid = hedge.Validate();
  if (!valid.ok()) return valid;
  config_.hedge = hedge;
  return Status::Ok();
}

Status Cluster::UpdateRetry(const RetryOptions& retry) {
  const Status valid = retry.Validate();
  if (!valid.ok()) return valid;
  config_.retry = retry;
  return Status::Ok();
}

int Cluster::EffectiveReadQuorumFor(Key key) {
  (void)key;  // mixing is cluster-wide; classes only scope measurement
  if (!mixing_active_) return config_.quorum.r;
  if (mix_rng_.NextDouble() < read_mix_.mix) {
    ++metrics_.mixed_reads_lo;
    return read_mix_.r_lo;
  }
  ++metrics_.mixed_reads_hi;
  return read_mix_.r_hi;
}

void Cluster::RecordCommit(Key key, int64_t sequence, double commit_time) {
  if (!freshness_enabled_) return;
  commit_ring_[commit_ring_next_] = CommitRecord{key, sequence, commit_time};
  commit_ring_next_ = (commit_ring_next_ + 1) % kCommitRingDepth;
}

void Cluster::RecordReadOutcome(Key key, int64_t returned_sequence,
                                double read_start_time) {
  if (!freshness_enabled_) return;
  // Stale beyond the SLA bound t iff some version of `key` newer than the
  // returned one committed at least t before the read started — i.e. a
  // read issued t after that commit still missed it. Bounded by the ring
  // depth: honest for the harness's hot-key probe stream, a documented
  // approximation for long-tailed key spaces.
  const double cutoff = read_start_time - config_.sla.staleness_bound_ms;
  bool stale = false;
  for (const CommitRecord& rec : commit_ring_) {
    if (rec.sequence == 0 || rec.key != key) continue;
    if (rec.sequence > returned_sequence && rec.commit_time <= cutoff) {
      stale = true;
      break;
    }
  }
  if (stale) {
    ++metrics_.reads_stale_measured;
  } else {
    ++metrics_.reads_fresh_measured;
  }
}

void Cluster::StartFailureDetector() {
  if (failure_detector_ != nullptr) return;
  if (config_.failure_detector == KvsConfig::FailureDetectorKind::kPhiAccrual) {
    PhiAccrualFailureDetector::Options options;
    options.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    options.threshold = config_.phi_threshold;
    options.min_std_ms = config_.phi_min_std_ms;
    options.max_silence_intervals = config_.phi_max_silence_intervals;
    failure_detector_ = std::make_unique<PhiAccrualFailureDetector>(
        this, options, config_.seed ^ 0xFDFDFD);
  } else {
    HeartbeatFailureDetector::Options options;
    options.heartbeat_interval_ms = config_.heartbeat_interval_ms;
    options.suspect_timeout_ms = config_.suspect_timeout_ms;
    failure_detector_ = std::make_unique<HeartbeatFailureDetector>(
        this, options, config_.seed ^ 0xFDFDFD);
  }
  failure_detector_->Start();
}

template <typename Fn>
void Cluster::ForEachCounter(Fn&& fn) const {
  const ClusterMetrics& m = metrics_;
  const struct {
    const char* name;
    int64_t value;
  } counters[] = {
      {"kvs/reads_started", m.reads_started},
      {"kvs/reads_failed", m.reads_failed},
      {"kvs/writes_started", m.writes_started},
      {"kvs/writes_failed", m.writes_failed},
      {"kvs/read_repairs_sent", m.read_repairs_sent},
      {"kvs/hinted_handoffs_sent", m.hinted_handoffs_sent},
      {"kvs/sloppy_substitutions", m.sloppy_substitutions},
      {"kvs/hints_stored", m.hints_stored},
      {"kvs/hints_delivered", m.hints_delivered},
      {"kvs/anti_entropy_rounds", m.anti_entropy_rounds},
      {"kvs/anti_entropy_values_shipped", m.anti_entropy_values_shipped},
      {"kvs/monotonic_read_violations", m.monotonic_read_violations},
      {"kvs/session_reads", m.session_reads},
      {"kvs/hedged_reads_sent", m.hedged_reads_sent},
      {"kvs/hedged_reads_won", m.hedged_reads_won},
      {"kvs/duplicate_responses_suppressed", m.duplicate_responses_suppressed},
      {"kvs/duplicate_acks_suppressed", m.duplicate_acks_suppressed},
      {"kvs/client_read_retries", m.client_read_retries},
      {"kvs/client_write_retries", m.client_write_retries},
      {"kvs/client_deadline_misses", m.client_deadline_misses},
      {"kvs/consistency_downgrades", m.consistency_downgrades},
      {"kvs/fault_slow_node_activations", m.fault_slow_node_activations},
      {"kvs/fault_lossy_link_activations", m.fault_lossy_link_activations},
      {"kvs/fault_flapping_activations", m.fault_flapping_activations},
      {"kvs/fault_asymmetric_partition_activations",
       m.fault_asymmetric_partition_activations},
      {"kvs/nodes_joined", m.nodes_joined},
      {"kvs/nodes_removed", m.nodes_removed},
      {"kvs/rebalances_started", m.rebalances_started},
      {"kvs/rebalances_completed", m.rebalances_completed},
      {"kvs/migration_keys_examined", m.migration_keys_examined},
      {"kvs/migration_transfers_sent", m.migration_transfers_sent},
      {"kvs/migration_transfers_delivered", m.migration_transfers_delivered},
      {"kvs/migration_transfers_dropped", m.migration_transfers_dropped},
      {"kvs/migration_transfer_retries", m.migration_transfer_retries},
      {"kvs/stale_routes_forwarded", m.stale_routes_forwarded},
      {"kvs/controller_epochs", m.controller_epochs},
      {"kvs/controller_steps", m.controller_steps},
      {"kvs/controller_rollbacks", m.controller_rollbacks},
      {"kvs/controller_holds", m.controller_holds},
      {"kvs/reads_fresh_measured", m.reads_fresh_measured},
      {"kvs/reads_stale_measured", m.reads_stale_measured},
      {"kvs/mixed_reads_lo", m.mixed_reads_lo},
      {"kvs/mixed_reads_hi", m.mixed_reads_hi},
      {"kvs/ring_version", static_cast<int64_t>(ring_.version())},
      {"kvs/storage_members", static_cast<int64_t>(ring_.num_nodes())},
      {"net/messages_sent", network_->messages_sent()},
      {"net/messages_dropped", network_->messages_dropped()},
      {"net/messages_duplicated", network_->messages_duplicated()},
      {"sim/events_processed",
       static_cast<int64_t>(sim_.events_processed())},
      {"sim/max_queue_depth", static_cast<int64_t>(sim_.max_queue_depth())},
      {"obs/ops_seen", static_cast<int64_t>(tracer_.ops_seen())},
      {"obs/ops_sampled", static_cast<int64_t>(tracer_.ops_sampled())},
      {"obs/trace_events_overwritten",
       static_cast<int64_t>(tracer_.events_overwritten())},
  };
  for (const auto& counter : counters) {
    fn(std::string_view(counter.name), counter.value);
  }
  // Per-shard attribution, keyed by primary owner: "kvs/shard/<id>/...".
  // m.shards is an ordered map, so visit order is deterministic.
  for (const auto& [shard, sm] : m.shards) {
    const std::string prefix = "kvs/shard/" + std::to_string(shard) + "/";
    fn(std::string_view(prefix + "reads"), sm.reads);
    fn(std::string_view(prefix + "writes"), sm.writes);
    fn(std::string_view(prefix + "migration_keys_received"),
       sm.migration_keys_received);
  }
}

void Cluster::ExportCounters(obs::Registry* out) const {
  assert(out != nullptr);
  ForEachCounter([out](std::string_view name, int64_t value) {
    out->counter(std::string(name)).Add(value);
  });
}

void Cluster::ExportMetrics(obs::Registry* out) const {
  assert(out != nullptr);
  ExportCounters(out);
  const ClusterMetrics& m = metrics_;
  obs::LogHistogram& reads = out->histogram("kvs/read_latency_ms");
  for (double sample : m.read_latency.samples()) reads.Record(sample);
  obs::LogHistogram& writes = out->histogram("kvs/write_latency_ms");
  for (double sample : m.write_latency.samples()) writes.Record(sample);
  for (const auto& [shard, sm] : m.shards) {
    const std::string prefix = "kvs/shard/" + std::to_string(shard) + "/";
    obs::LogHistogram& shard_reads = out->histogram(prefix + "read_latency_ms");
    for (double sample : sm.read_latency.samples()) shard_reads.Record(sample);
    obs::LogHistogram& shard_writes =
        out->histogram(prefix + "write_latency_ms");
    for (double sample : sm.write_latency.samples()) {
      shard_writes.Record(sample);
    }
  }
  if (monitor_ != nullptr) monitor_->ExportTo(out);
  if (leg_profiler_ != nullptr) leg_profiler_->ExportTo(out);
}

obs::MetricsSnapshotHeader Cluster::MetricsHeader() const {
  obs::MetricsSnapshotHeader header;
  header.predictor_backend = predictor_backend_;
  header.predictor_note = predictor_note_;
  header.active_decision_id = active_decision_id_;
  header.snapshot_time_ms = sim_.now();
  return header;
}

void Cluster::StartTelemetry() {
  if (telemetry_started_ || config_.obs.telemetry_window_ms <= 0.0) return;
  telemetry_started_ = true;
  timeseries_ =
      std::make_unique<obs::TimeSeries>(config_.obs.timeseries_capacity);
  if (config_.obs.monitor_enabled) {
    // The kvs layer owns the SLA; the monitor gets its clauses as plain
    // numbers (obs sits below core and cannot see SlaTarget).
    obs::MonitorOptions options = config_.obs.monitor;
    options.sla_fresh_probability = config_.sla.fresh_probability;
    options.sla_read_p99_ms = config_.sla.read_p99_ms;
    monitor_ = std::make_unique<obs::ConsistencyMonitor>(options);
    if (leg_profiler_ == nullptr) {
      // Ring-capped: the monitor's fits only read the newest samples, so
      // the owned profiler never needs unbounded history (an externally
      // attached profiler keeps whatever policy its owner chose).
      telemetry_profiler_ =
          std::make_unique<LegProfiler>(kMonitorProfilerSampleCap);
      leg_profiler_ = telemetry_profiler_.get();
    }
  }
  sim_.ScheduleTimer(config_.obs.telemetry_window_ms,
                     [this]() { TelemetryTick(); });
}

void Cluster::RefreshMonitorPrediction() {
  const LegProfiler* profiler = leg_profiler_;
  if (profiler == nullptr) return;
  using Leg = LegProfiler::Leg;
  const std::array<size_t, LegProfiler::kNumLegs> counts = {
      profiler->count(Leg::kWriteRequest), profiler->count(Leg::kWriteAck),
      profiler->count(Leg::kReadRequest), profiler->count(Leg::kReadResponse)};
  const int64_t min_samples = config_.obs.monitor.min_leg_samples;
  for (size_t count : counts) {
    if (static_cast<int64_t>(count) < min_samples) return;  // keep last fit
  }
  const MixedQuorum active =
      mixing_active_ ? read_mix_
                     : MixedQuorum{config_.quorum.n, config_.quorum.r,
                                   config_.quorum.r, config_.quorum.w, 0.0};
  bool stale_fit =
      !monitor_prediction_valid_ || !(active == monitor_fit_quorum_);
  if (!stale_fit) {
    // Refit on a doubling schedule while the fit is still stabilizing, then
    // FREEZE it (until the active quorum changes): the frozen pre-fault fit
    // is the stable reference mid-run drift is scored against, and the
    // whole run pays O(log) refits instead of one per window.
    const size_t stabilize_cap =
        static_cast<size_t>(min_samples) * kMonitorFitStabilizeFactor;
    for (int leg = 0; leg < LegProfiler::kNumLegs; ++leg) {
      if (monitor_fit_counts_[leg] < stabilize_cap &&
          counts[leg] >= 2 * monitor_fit_counts_[leg]) {
        stale_fit = true;
        break;
      }
    }
  }
  if (!stale_fit) return;

  // Fit on the newest samples only (bounded sort cost per refit; the legs
  // are stationary pre-fault, which is the only regime refits run in).
  const auto fit_leg = [profiler](Leg leg) {
    const std::vector<double>& all = profiler->samples(leg);
    const size_t take = std::min(all.size(), kMonitorFitSampleCap);
    return Empirical(std::vector<double>(all.end() - take, all.end()));
  };
  WarsDistributions fitted;
  fitted.name = "monitor-fit";
  fitted.w = fit_leg(Leg::kWriteRequest);
  fitted.a = fit_leg(Leg::kWriteAck);
  fitted.r = fit_leg(Leg::kReadRequest);
  fitted.s = fit_leg(Leg::kReadResponse);
  MixedQuorumPredictor::Options options;
  // Always the analytic backend: RNG-free, so the monitor never perturbs
  // seeded runs. The grid is deliberately coarse — drift tolerances are
  // 15% freshness / 75% relative p99, far wider than a 1024-bin
  // auto-scaled grid's error — keeping a refit well under a millisecond.
  options.backend = PredictorBackend::kAnalytic;
  options.read_fanout = config_.read_fanout;
  options.exec.threads = 1;
  options.grid = AnalyticGridOptions{/*max_ms=*/2000.0, /*bins=*/1024,
                                     /*auto_max=*/true};
  const MixedQuorumPredictor predictor(
      config_.sla, MakeIidModel(fitted, config_.quorum.n), active, options);
  monitor_prediction_ = predictor.Evaluate(active, /*seed=*/0);
  monitor_prediction_valid_ = true;
  monitor_fit_quorum_ = active;
  monitor_fit_counts_ = counts;
  if (predictor_backend_.empty() || active_decision_id_ < 0) {
    // Provenance: the controller's epoch predictor wins when one runs;
    // otherwise the monitor's fit is the run's predictor of record.
    predictor_backend_ = PredictorBackendName(predictor.backend());
    predictor_note_ = predictor.note();
  }
}

void Cluster::TelemetryTick() {
  const double window_ms = config_.obs.telemetry_window_ms;
  const int64_t window_id = telemetry_window_index_++;
  const double start_ms = static_cast<double>(window_id) * window_ms;
  const double end_ms = sim_.now();

  // Consume the window's new latency samples exactly once: record them
  // straight into the window's delta histograms (exact min/max, no dense
  // cumulative rebuild) and keep the slice bounds for the monitor's
  // quantiles. Empty slices record nothing, so quiet instruments stay out
  // of the window.
  const auto& read_samples = metrics_.read_latency.samples();
  const auto& write_samples = metrics_.write_latency.samples();
  const size_t read_begin = telemetry_read_seen_;
  const size_t write_begin = telemetry_write_seen_;
  telemetry_read_seen_ = read_samples.size();
  telemetry_write_seen_ = write_samples.size();

  obs::Registry delta;
  if (read_samples.size() > read_begin) {
    obs::LogHistogram& hist = delta.histogram("kvs/read_latency_ms");
    for (size_t i = read_begin; i < read_samples.size(); ++i) {
      hist.Record(read_samples[i]);
    }
  }
  if (write_samples.size() > write_begin) {
    obs::LogHistogram& hist = delta.histogram("kvs/write_latency_ms");
    for (size_t i = write_begin; i < write_samples.size(); ++i) {
      hist.Record(write_samples[i]);
    }
  }

  if (monitor_ != nullptr) {
    obs::WindowSample sample;
    sample.window_id = window_id;
    sample.start_ms = start_ms;
    sample.end_ms = end_ms;
    sample.reads = static_cast<int64_t>(read_samples.size() - read_begin);
    if (sample.reads > 0) {
      std::vector<double> window(read_samples.begin() + read_begin,
                                 read_samples.end());
      sample.read_p50_ms = QuantileSelect(window, 0.50);
      sample.read_p99_ms = QuantileSelect(window, 0.99);
    }
    sample.fresh = metrics_.reads_fresh_measured - telemetry_fresh_seen_;
    sample.stale = metrics_.reads_stale_measured - telemetry_stale_seen_;
    sample.failed = metrics_.reads_failed - telemetry_failed_seen_;
    sample.hedges = metrics_.hedged_reads_sent - telemetry_hedges_seen_;
    sample.retries = metrics_.client_read_retries - telemetry_retries_seen_;
    telemetry_fresh_seen_ = metrics_.reads_fresh_measured;
    telemetry_stale_seen_ = metrics_.reads_stale_measured;
    telemetry_failed_seen_ = metrics_.reads_failed;
    telemetry_hedges_seen_ = metrics_.hedged_reads_sent;
    telemetry_retries_seen_ = metrics_.client_read_retries;
    RefreshMonitorPrediction();
    if (monitor_prediction_valid_) {
      sample.predicted_valid = true;
      sample.predicted_fresh = monitor_prediction_.fresh_probability;
      sample.predicted_p99_ms = monitor_prediction_.read_p99_ms;
    }
    monitor_->ObserveWindow(sample);
    // Monitor counter deltas by hand (ObserveWindow appended exactly one
    // window sample and possibly new alerts), mirroring what
    // ConsistencyMonitor::ExportTo would contribute to a cumulative diff.
    // Counted after ObserveWindow so an alert raised in window k lands in
    // window k's delta.
    delta.counter("obs/monitor_windows").value = 1;
    const auto& alerts = monitor_->alerts();
    if (alerts.size() > telemetry_alerts_seen_) {
      delta.counter("obs/monitor_alerts").value =
          static_cast<int64_t>(alerts.size() - telemetry_alerts_seen_);
      for (size_t i = telemetry_alerts_seen_; i < alerts.size(); ++i) {
        delta
            .counter(std::string("obs/alerts/") +
                     obs::AlertKindName(alerts[i].kind))
            .value += 1;
      }
      telemetry_alerts_seen_ = alerts.size();
    }
  }

  // Counters: diff a flat value snapshot against the previous tick. The
  // steady state (registry shape unchanged) is one string compare plus one
  // integer compare per row with zero allocations for unmoved counters;
  // shape churn (a shard appearing mid-run) drops into a by-name recovery
  // pass for the tail. Per-shard and per-leg *histograms* deliberately stay
  // out of the windowed series (DESIGN.md §13).
  {
    std::vector<std::string>& names = telemetry_counter_names_;
    std::vector<int64_t>& prev = telemetry_counter_prev_;
    std::vector<std::string> fresh_names;
    std::vector<int64_t> fresh_values;
    size_t row = 0;
    bool aligned = true;
    ForEachCounter([&](std::string_view name, int64_t value) {
      if (aligned && row < names.size() && names[row] == name) {
        if (value != prev[row]) {
          delta.counter(names[row]).value = value - prev[row];
          prev[row] = value;
        }
        ++row;
        return;
      }
      aligned = false;
      fresh_names.emplace_back(name);
      fresh_values.push_back(value);
    });
    if (!aligned) {
      // The rows beyond the matched prefix re-key by name: vanished names
      // are forgotten, new names baseline at 0.
      std::map<std::string_view, int64_t> old;
      for (size_t i = row; i < names.size(); ++i) old.emplace(names[i], prev[i]);
      for (size_t i = 0; i < fresh_names.size(); ++i) {
        const auto it = old.find(fresh_names[i]);
        const int64_t before = it != old.end() ? it->second : 0;
        if (fresh_values[i] != before) {
          delta.counter(fresh_names[i]).value = fresh_values[i] - before;
        }
      }
      names.resize(row);
      prev.resize(row);
      for (size_t i = 0; i < fresh_names.size(); ++i) {
        names.push_back(std::move(fresh_names[i]));
        prev.push_back(fresh_values[i]);
      }
    } else if (row < names.size()) {
      names.resize(row);
      prev.resize(row);
    }
  }

  timeseries_->AdvanceDelta(window_id, start_ms, end_ms, std::move(delta));

  sim_.ScheduleTimer(window_ms, [this]() { TelemetryTick(); });
}

void Cluster::StartAntiEntropy() {
  if (config_.anti_entropy_interval_ms <= 0.0) return;
  sim_.Schedule(config_.anti_entropy_interval_ms, [this]() {
    RunAntiEntropyTick(this, &anti_entropy_rng_);
  });
}

}  // namespace kvs
}  // namespace pbs
