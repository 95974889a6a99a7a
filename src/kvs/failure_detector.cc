#include "kvs/failure_detector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "kvs/cluster.h"

namespace pbs {
namespace kvs {
namespace {

// Inter-arrival samples the φ-accrual window keeps per node.
constexpr int kPhiWindowSize = 128;

}  // namespace

FailureDetector::FailureDetector(Cluster* cluster, double ping_interval_ms,
                                 uint64_t seed)
    : cluster_(cluster), ping_interval_ms_(ping_interval_ms), rng_(seed) {
  assert(cluster != nullptr);
  assert(ping_interval_ms > 0.0);
}

void FailureDetector::Start() {
  OnStart(cluster_->sim().now());
  Tick();
}

void FailureDetector::OnPong(NodeId node) {
  ++pongs_received_;
  RecordArrival(node, cluster_->sim().now());
}

void FailureDetector::Tick() {
  const KvsConfig& config = cluster_->config();
  // Monitor the *current* ring membership: joined nodes start being pinged
  // (tracked from this tick with the benefit of the doubt), removed nodes
  // stop. On a static ring this is exactly [0, num_replicas()).
  const double now = cluster_->sim().now();
  for (NodeId node : cluster_->StorageMembers()) {
    EnsureTracked(node, now);
    ++pings_sent_;
    // Ping travels like a read request; a live replica pongs like a read
    // response. The detector itself is infrastructure (not a simulated
    // node), so the monitor endpoint id is -1. A dropped ping or pong is
    // indistinguishable from a slow one — exactly the ambiguity accrual
    // detection exists to manage — so the send result is intentionally
    // unused beyond the drop accounting the network already keeps.
    const double ping_delay = config.legs.r->Sample(rng_);
    Node* target = &cluster_->node(node);
    Cluster* cluster = cluster_;
    FailureDetector* self = this;
    Rng* rng = &rng_;
    (void)cluster_->network().SendWithDelay(
        /*src=*/-1, node, ping_delay, [target, cluster, self, rng, node]() {
          if (!target->alive()) return;  // fail-stop: no pong
          const double pong_delay =
              cluster->config().legs.s->Sample(*rng);
          (void)cluster->network().SendWithDelay(
              node, /*dst=*/-1, pong_delay,
              [self, node]() { self->OnPong(node); });
        });
  }
  // Heartbeats ride the timer wheel with every other periodic timer; the
  // shared sequence counter keeps firing order identical to Schedule().
  (void)cluster_->sim().ScheduleTimer(ping_interval_ms_,
                                      [this]() { Tick(); });
}

// ---------------------------------------------------------------------------
// Heartbeat (fixed timeout)

HeartbeatFailureDetector::HeartbeatFailureDetector(Cluster* cluster,
                                                   const Options& options,
                                                   uint64_t seed)
    : FailureDetector(cluster, options.heartbeat_interval_ms, seed),
      options_(options),
      last_heard_(cluster->num_replicas(), 0.0) {
  assert(options.suspect_timeout_ms > 0.0);
}

void HeartbeatFailureDetector::OnStart(double now) {
  // Give every replica the benefit of the doubt at startup.
  for (auto& t : last_heard_) t = now;
}

bool HeartbeatFailureDetector::IsSuspected(NodeId node) const {
  assert(node >= 0);
  if (node < 0 || node >= static_cast<NodeId>(last_heard_.size())) {
    return false;  // untracked (just joined): benefit of the doubt
  }
  return cluster_->sim().now() - last_heard_[node] >
         options_.suspect_timeout_ms;
}

void HeartbeatFailureDetector::RecordArrival(NodeId node, double now) {
  EnsureTracked(node, now);
  last_heard_[node] = now;
}

void HeartbeatFailureDetector::EnsureTracked(NodeId node, double now) {
  if (node >= static_cast<NodeId>(last_heard_.size())) {
    last_heard_.resize(node + 1, now);
  }
}

// ---------------------------------------------------------------------------
// φ-accrual

PhiAccrualFailureDetector::PhiAccrualFailureDetector(Cluster* cluster,
                                                     const Options& options,
                                                     uint64_t seed)
    : FailureDetector(cluster, options.heartbeat_interval_ms, seed),
      options_(options),
      states_(cluster->num_replicas()) {
  assert(options.threshold > 0.0);
  assert(options.min_std_ms > 0.0);
}

void PhiAccrualFailureDetector::OnStart(double now) {
  for (auto& state : states_) {
    state.last_arrival = now;
    state.arrivals = 0;
  }
}

void PhiAccrualFailureDetector::EnsureTracked(NodeId node, double now) {
  if (node >= static_cast<NodeId>(states_.size())) {
    const size_t old_size = states_.size();
    states_.resize(node + 1);
    for (size_t i = old_size; i < states_.size(); ++i) {
      states_[i].last_arrival = now;
    }
  }
}

void PhiAccrualFailureDetector::RecordArrival(NodeId node, double now) {
  EnsureTracked(node, now);
  NodeState& state = states_[node];
  if (state.arrivals > 0) {
    const double interval = now - state.last_arrival;
    if (static_cast<int>(state.window.size()) < kPhiWindowSize) {
      state.window.push_back(interval);
      state.sum += interval;
      state.sum_sq += interval * interval;
    } else {
      const double evicted = state.window[state.next];
      state.window[state.next] = interval;
      state.sum += interval - evicted;
      state.sum_sq += interval * interval - evicted * evicted;
      state.next = (state.next + 1) % kPhiWindowSize;
    }
  }
  state.last_arrival = now;
  ++state.arrivals;
}

double PhiAccrualFailureDetector::Phi(NodeId node) const {
  assert(node >= 0);
  if (node < 0 || node >= static_cast<NodeId>(states_.size())) {
    return 0.0;  // untracked (just joined): no accrued suspicion yet
  }
  const NodeState& state = states_[node];
  // Bootstrap: before two inter-arrival samples exist, assume the
  // configured heartbeat interval with the floor deviation so a node that
  // never pongs still accrues suspicion from startup.
  double mean = options_.heartbeat_interval_ms;
  double std = options_.min_std_ms;
  const size_t n = state.window.size();
  if (n >= 2) {
    mean = state.sum / static_cast<double>(n);
    const double variance =
        std::max(0.0, state.sum_sq / static_cast<double>(n) - mean * mean);
    std = std::max(std::sqrt(variance), options_.min_std_ms);
  }
  const double since = cluster_->sim().now() - state.last_arrival;
  // P(gap > since) under the normal approximation, as in the original
  // paper; -log10 turns it into the accrued suspicion level.
  const double z = (since - mean) / std;
  const double p_later = 0.5 * std::erfc(z / std::sqrt(2.0));
  if (p_later <= 0.0) return 1e9;  // erfc underflow: certainty
  return -std::log10(p_later);
}

bool PhiAccrualFailureDetector::IsSuspected(NodeId node) const {
  if (Phi(node) >= options_.threshold) return true;
  // Silence backstop: the windowed φ can be desensitized by a poisoned
  // inter-arrival window (e.g. reordering-inflated variance on a node slow
  // from t = 0) and then never cross the threshold after the node dies.
  // Prolonged total silence is suspicious regardless of history.
  if (options_.max_silence_intervals > 0.0 &&
      node >= 0 && static_cast<size_t>(node) < states_.size()) {
    const double since =
        cluster_->sim().now() - states_[node].last_arrival;
    if (since >
        options_.max_silence_intervals * options_.heartbeat_interval_ms) {
      return true;
    }
  }
  return false;
}

}  // namespace kvs
}  // namespace pbs
