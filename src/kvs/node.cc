#include "kvs/node.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "kvs/cluster.h"
#include "kvs/profiler.h"

namespace pbs {
namespace kvs {
namespace {

// Extra request legs one hedge wave may send.
constexpr int kHedgeLegsPerWave = 2;

}  // namespace

Node::Node(Cluster* cluster, NodeId id, bool is_replica, uint64_t seed)
    : cluster_(cluster), id_(id), is_replica_(is_replica), rng_(seed) {
  assert(cluster != nullptr);
}

// ---------------------------------------------------------------------------
// Pooled operation slots
//
// Per-op coordinator state lives in deque slabs recycled through free lists;
// a FlatMap64 maps request id -> slot. Slots keep their vector/string
// capacity across reuse, so once the pools are warm the coordinator paths
// acquire and retire operations without touching the heap. Request ids are
// never reused, so a message that outlives its operation (duplicate
// delivery, late ack) simply fails the index lookup.

Node::PendingWrite* Node::FindWrite(uint64_t request_id) {
  const uint32_t* slot = write_index_.Find(request_id);
  return slot == nullptr ? nullptr : &write_pool_[*slot];
}

Node::PendingRead* Node::FindRead(uint64_t request_id) {
  const uint32_t* slot = read_index_.Find(request_id);
  return slot == nullptr ? nullptr : &read_pool_[*slot];
}

Node::PendingWrite& Node::AcquireWrite(uint64_t request_id) {
  uint32_t slot;
  if (!write_free_.empty()) {
    slot = write_free_.back();
    write_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(write_pool_.size());
    write_pool_.emplace_back();
  }
  PendingWrite& pending = write_pool_[slot];
  pending.request_id = request_id;
  pending.slot = slot;
  pending.key = 0;
  pending.replicas.clear();
  pending.acked_mask = 0;
  pending.acks = 0;
  pending.required = 1;
  pending.handoff_retries = 0;
  pending.start_time = 0.0;
  pending.pass = WritePass::kCollect;
  pending.committed = false;
  pending.timed_out = false;
  pending.trace_id = 0;
  pending.shard = 0;
  pending.timer = TimerHandle();
  write_index_.Put(request_id, slot);
  return pending;
}

Node::PendingRead& Node::AcquireRead(uint64_t request_id) {
  uint32_t slot;
  if (!read_free_.empty()) {
    slot = read_free_.back();
    read_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(read_pool_.size());
    read_pool_.emplace_back();
  }
  PendingRead& pending = read_pool_[slot];
  pending.request_id = request_id;
  pending.slot = slot;
  pending.key = 0;
  pending.replicas.clear();
  pending.untried.clear();
  pending.hedge_only.clear();
  pending.responses = 0;
  pending.required = 1;
  pending.pass = ReadPass::kCollect;
  pending.start_time = 0.0;
  pending.has_best = false;
  pending.has_best_all = false;
  // `all` entries beyond `responses` are stale but retained: their value
  // buffers are reused in place by the next operation in this slot.
  pending.late_sequences.clear();
  pending.trace_id = 0;
  pending.shard = 0;
  pending.timeout_timer = TimerHandle();
  pending.hedge_timer = TimerHandle();
  read_index_.Put(request_id, slot);
  return pending;
}

void Node::RetireWrite(PendingWrite& pending) {
  // The timer may already have fired (retire from within the timeout /
  // handoff chain) — Cancel is a detected no-op then.
  cluster_->sim().CancelTimer(pending.timer);
  pending.timer = TimerHandle();
  pending.value.Reset();
  pending.done = nullptr;
  write_index_.Erase(pending.request_id);
  write_free_.push_back(pending.slot);
}

void Node::RetireRead(PendingRead& pending) {
  cluster_->sim().CancelTimer(pending.timeout_timer);
  cluster_->sim().CancelTimer(pending.hedge_timer);
  pending.timeout_timer = TimerHandle();
  pending.hedge_timer = TimerHandle();
  pending.done = nullptr;
  read_index_.Erase(pending.request_id);
  read_free_.push_back(pending.slot);
}

// ---------------------------------------------------------------------------
// Coordinator: write passes

void Node::CoordinateWrite(Key key, VersionedValue value, WriteCallback done,
                           double timeout_override_ms, uint64_t trace_id,
                           uint64_t client_ring_version) {
  const KvsConfig& config = cluster_->config();
  const uint64_t request_id = cluster_->NextRequestId();
  ++cluster_->metrics().writes_started;
  if (client_ring_version != 0 &&
      client_ring_version != cluster_->ring_version()) {
    // The client routed with an out-of-date ring; the coordinator serves it
    // against current placement (forwarding) and counts the stale route.
    ++cluster_->metrics().stale_routes_forwarded;
  }

  PendingWrite& pending = AcquireWrite(request_id);
  pending.key = key;
  // The payload is copied once into a pooled arena slot; every message
  // closure below carries a 16-byte handle instead of its own copy.
  pending.value = cluster_->version_arena().Acquire(value);
  // Union of old- and new-epoch replica sets while a rebalance drains; the
  // current-ring preference list is always the prefix, so [0] is the key's
  // shard primary.
  cluster_->RoutingReplicasForInto(key, &pending.replicas);
  assert(pending.replicas.size() <= 64);  // ack bookkeeping is a bitmask
  // Pad W by the number of extra (old-epoch) targets: W + (U - N) acks out
  // of U union targets intersect every R-of-U read quorum whenever
  // R + W > N, which is what makes acknowledged writes durable across the
  // epoch switch.
  pending.required =
      config.quorum.w +
      std::max(0, static_cast<int>(pending.replicas.size()) - config.quorum.n);
  pending.shard = pending.replicas.empty() ? 0 : pending.replicas.front();
  pending.start_time = cluster_->sim().now();
  pending.trace_id = trace_id;
  pending.done = std::move(done);
  ++cluster_->metrics().shards[pending.shard].writes;

  // Sloppy quorums (Dynamo): replace suspected home replicas with the next
  // healthy nodes from the extended preference list; substitutes hold the
  // write as a hint for the home replica.
  hint_homes_.assign(pending.replicas.size(), kNoHint);
  const FailureDetector* detector = cluster_->failure_detector();
  if (config.sloppy_quorums && detector != nullptr) {
    cluster_->ExtendedReplicasForInto(key, &extended_scratch_);
    size_t next_substitute = pending.replicas.size();
    for (size_t i = 0; i < pending.replicas.size(); ++i) {
      if (!detector->IsSuspected(pending.replicas[i])) continue;
      while (next_substitute < extended_scratch_.size() &&
             detector->IsSuspected(extended_scratch_[next_substitute])) {
        ++next_substitute;
      }
      if (next_substitute >= extended_scratch_.size()) break;  // nobody left
      ++cluster_->metrics().sloppy_substitutions;
      hint_homes_[i] = pending.replicas[i];
      pending.replicas[i] = extended_scratch_[next_substitute++];
    }
  }

  // Fan out to all N targets (Figure 1); each request leg draws its own W
  // delay.
  const double now = pending.start_time;
  for (size_t i = 0; i < pending.replicas.size(); ++i) {
    const NodeId replica = pending.replicas[i];
    const NodeId hint_home = hint_homes_[i];
    // A coordinator that is itself the target serves the request locally
    // (Section 4.2 "Proxying operations").
    const double delay =
        replica == id_ ? 0.0 : config.legs.w->Sample(rng_);
    if (cluster_->leg_profiler() != nullptr && replica != id_) {
      cluster_->leg_profiler()->Record(LegProfiler::Leg::kWriteRequest,
                                       delay);
    }
    Node* target = &cluster_->node(replica);
    // A dropped request leaves the timeout armed; hinted handoff (if on)
    // re-delivers from there.
    double effective_delay = delay;
    const bool delivered = cluster_->network().SendWithDelay(
        id_, replica, delay,
        [target, key, ref = pending.value, coordinator = id_, request_id,
         hint_home, trace_id]() {
          target->HandleWriteRequest(key, *ref, coordinator, request_id,
                                     /*is_repair=*/false, hint_home, trace_id);
        },
        &effective_delay);
    if (trace_id != 0) {
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = trace_id,
          .kind = delivered ? obs::TraceEventKind::kLegSend
                            : obs::TraceEventKind::kLegDrop,
          .leg = obs::WarsLeg::kW,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = delivered ? now + effective_delay : now,
          .a = pending.value->sequence});
    }
  }
  const double timeout = timeout_override_ms > 0.0 ? timeout_override_ms
                                                   : config.request_timeout_ms;
  pending.timer = cluster_->sim().ScheduleTimer(
      timeout, [this, request_id]() { OnWriteTimeout(request_id); });
}

void Node::OnWriteAck(uint64_t request_id, NodeId replica) {
  PendingWrite* slot = FindWrite(request_id);
  if (slot == nullptr) return;  // already retired
  PendingWrite& pending = *slot;
  for (size_t i = 0; i < pending.replicas.size(); ++i) {
    if (pending.replicas[i] != replica) continue;
    const uint64_t bit = uint64_t{1} << i;
    if ((pending.acked_mask & bit) != 0) {
      // Duplicate delivery (network duplication or a handoff re-send that
      // raced the original): never count the same replica toward W twice.
      ++cluster_->metrics().duplicate_acks_suppressed;
      return;
    }
    pending.acked_mask |= bit;
    ++pending.acks;
    break;
  }
  const double now = cluster_->sim().now();
  if (pending.trace_id != 0) {
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = pending.trace_id,
        .kind = obs::TraceEventKind::kAck,
        .leg = obs::WarsLeg::kA,
        .src = replica,
        .dst = id_,
        .t_start = now,
        .t_end = now,
        .a = pending.acks});
  }
  if (!pending.committed && pending.acks >= pending.required) {
    // Commit pass: the W-th distinct ack arrived before the timeout.
    pending.committed = true;
    WriteResult result;
    result.ok = true;
    result.status = Status::Ok();
    result.trace_id = pending.trace_id;
    result.sequence = pending.value->sequence;
    result.commit_time = now;
    result.latency_ms = result.commit_time - pending.start_time;
    result.ring_version = cluster_->ring_version();
    cluster_->metrics().write_latency.Record(result.latency_ms);
    cluster_->metrics().shards[pending.shard].write_latency.Record(
        result.latency_ms);
    cluster_->RecordCommit(pending.key, result.sequence, now);
    if (pending.trace_id != 0) {
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kReturn,
          .leg = obs::WarsLeg::kA,
          .src = replica,
          .dst = id_,
          .t_start = now,
          .t_end = now,
          .a = result.sequence,
          .b = pending.required});
    }
    if (pending.done) pending.done(result);
  }
  if (pending.acks == static_cast<int>(pending.replicas.size())) {
    RetireWrite(pending);
  }
}

void Node::OnWriteTimeout(uint64_t request_id) {
  PendingWrite* slot = FindWrite(request_id);
  if (slot == nullptr) return;  // fully acknowledged already
  PendingWrite& pending = *slot;
  if (!pending.committed && !pending.timed_out) {
    pending.timed_out = true;
    ++cluster_->metrics().writes_failed;
    if (pending.trace_id != 0) {
      const double now = cluster_->sim().now();
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kTimeout,
          .leg = obs::WarsLeg::kA,
          .src = id_,
          .t_start = now,
          .t_end = now,
          .a = pending.acks,
          .b = pending.required});
    }
    WriteResult failed;
    failed.status = Status::TimedOut("write: no W acks before the timeout");
    failed.trace_id = pending.trace_id;
    failed.sequence = pending.value->sequence;
    failed.ring_version = cluster_->ring_version();
    if (pending.done) pending.done(failed);
  }
  if (cluster_->config().hinted_handoff) {
    pending.pass = WritePass::kHandoff;
    ResendUnacked(request_id);
  } else {
    RetireWrite(pending);
  }
}

void Node::ResendUnacked(uint64_t request_id) {
  PendingWrite* slot = FindWrite(request_id);
  if (slot == nullptr) return;
  PendingWrite& pending = *slot;
  assert(pending.pass == WritePass::kHandoff);
  const KvsConfig& config = cluster_->config();

  // Hinted handoff (Section 6 "recovery semantics"): keep re-delivering the
  // write to unacknowledged replicas until they accept it or the retry
  // budget runs out.
  bool any_unacked = false;
  const double now = cluster_->sim().now();
  for (size_t i = 0; i < pending.replicas.size(); ++i) {
    if ((pending.acked_mask >> i) & 1) continue;
    any_unacked = true;
    const NodeId replica = pending.replicas[i];
    const double delay = config.legs.w->Sample(rng_);
    Node* target = &cluster_->node(replica);
    const Key key = pending.key;
    ++cluster_->metrics().hinted_handoffs_sent;
    double effective_delay = delay;
    const bool delivered = cluster_->network().SendWithDelay(
        id_, replica, delay,
        [target, key, ref = pending.value, coordinator = id_, request_id,
         trace_id = pending.trace_id]() {
          target->HandleWriteRequest(key, *ref, coordinator, request_id,
                                     /*is_repair=*/false, Node::kNoHint,
                                     trace_id);
        },
        &effective_delay);
    if (pending.trace_id != 0) {
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = delivered ? obs::TraceEventKind::kLegSend
                            : obs::TraceEventKind::kLegDrop,
          .leg = obs::WarsLeg::kW,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = delivered ? now + effective_delay : now,
          .a = pending.value->sequence});
    }
  }
  if (!any_unacked) {
    RetireWrite(pending);
    return;
  }
  // Capped exponential backoff with deterministic jitter in [0.5, 1): the
  // first re-send waits ~backoff_base, then doubles up to backoff_max, so a
  // long outage costs O(log) retries instead of a fixed-rate storm.
  const int retries = pending.handoff_retries;
  if (++pending.handoff_retries >= config.hinted_handoff_max_retries) {
    RetireWrite(pending);
    return;
  }
  const double backoff =
      std::min(config.hinted_handoff_backoff_max_ms,
               config.hinted_handoff_backoff_base_ms *
                   std::pow(2.0, static_cast<double>(retries)));
  const double jitter = 0.5 + 0.5 * rng_.NextDouble();
  pending.timer = cluster_->sim().ScheduleTimer(
      backoff * jitter, [this, request_id]() { ResendUnacked(request_id); });
}

// ---------------------------------------------------------------------------
// Coordinator: read passes

void Node::CoordinateRead(Key key, ReadCallback done, int required_override,
                          double timeout_override_ms, uint64_t trace_id,
                          uint64_t client_ring_version) {
  const KvsConfig& config = cluster_->config();
  const uint64_t request_id = cluster_->NextRequestId();
  ++cluster_->metrics().reads_started;
  if (client_ring_version != 0 &&
      client_ring_version != cluster_->ring_version()) {
    ++cluster_->metrics().stale_routes_forwarded;
  }

  PendingRead& pending = AcquireRead(request_id);
  pending.key = key;
  // Union routing during rebalance; current-ring prefix, [0] = primary.
  cluster_->RoutingReplicasForInto(key, &pending.replicas);
  pending.shard = pending.replicas.empty() ? 0 : pending.replicas.front();
  ++cluster_->metrics().shards[pending.shard].reads;
  pending.required =
      required_override > 0
          ? std::min(required_override,
                     static_cast<int>(pending.replicas.size()))
          : cluster_->EffectiveReadQuorumFor(key);
  if (config.read_fanout == ReadFanout::kQuorumOnly) {
    // Voldemort-style: contact only a uniformly random R-subset. The
    // uncontacted remainder becomes the hedge pool.
    for (int i = 0; i < pending.required; ++i) {
      const size_t j =
          i + rng_.NextBounded(pending.replicas.size() - i);
      std::swap(pending.replicas[i], pending.replicas[j]);
    }
    pending.untried.assign(pending.replicas.begin() + pending.required,
                           pending.replicas.end());
    pending.replicas.resize(pending.required);
  }
  pending.start_time = cluster_->sim().now();
  pending.trace_id = trace_id;
  pending.done = std::move(done);
  for (NodeId replica : pending.replicas) {
    SendReadRequest(key, replica, request_id, trace_id, /*is_hedge=*/false);
  }
  const double timeout = timeout_override_ms > 0.0 ? timeout_override_ms
                                                   : config.request_timeout_ms;
  pending.timeout_timer = cluster_->sim().ScheduleTimer(
      timeout, [this, request_id]() { OnReadTimeout(request_id); });
  if (config.hedge.enabled) {
    // Rapid read protection: if R responses have not assembled by the
    // hedging delay, re-issue the read (see OnHedgeDeadline). The delay is
    // either pinned or derived from the per-leg latency quantiles.
    double hedge_delay = config.hedge.delay_ms;
    if (hedge_delay <= 0.0) {
      hedge_delay = config.legs.r->Quantile(config.hedge.quantile) +
                    config.legs.s->Quantile(config.hedge.quantile);
    }
    if (hedge_delay < timeout) {
      pending.hedge_timer = cluster_->sim().ScheduleTimer(
          hedge_delay, [this, request_id]() { OnHedgeDeadline(request_id); });
    }
  }
}

void Node::SendReadRequest(Key key, NodeId replica, uint64_t request_id,
                           uint64_t trace_id, bool is_hedge) {
  const KvsConfig& config = cluster_->config();
  const double delay = replica == id_ ? 0.0 : config.legs.r->Sample(rng_);
  if (cluster_->leg_profiler() != nullptr && replica != id_) {
    cluster_->leg_profiler()->Record(LegProfiler::Leg::kReadRequest, delay);
  }
  Node* target = &cluster_->node(replica);
  // A dropped request leaves the hedge/timeout timers armed.
  double effective_delay = delay;
  const bool delivered = cluster_->network().SendWithDelay(
      id_, replica, delay,
      [target, key, coordinator = id_, request_id, trace_id]() {
        target->HandleReadRequest(key, coordinator, request_id, trace_id);
      },
      &effective_delay);
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = delivered ? obs::TraceEventKind::kLegSend
                          : obs::TraceEventKind::kLegDrop,
        .leg = obs::WarsLeg::kR,
        .src = id_,
        .dst = replica,
        .t_start = now,
        .t_end = delivered ? now + effective_delay : now,
        .b = is_hedge ? 1 : 0});
  }
}

void Node::OnHedgeDeadline(uint64_t request_id) {
  PendingRead* slot = FindRead(request_id);
  if (slot == nullptr) return;  // collection already finished
  PendingRead& pending = *slot;
  if (pending.returned()) return;  // R assembled in time: nothing to protect
  const double now = cluster_->sim().now();
  int budget = kHedgeLegsPerWave;
  // Prefer preference-list replicas never contacted (the kQuorumOnly
  // leftover pool): a fresh replica dodges whatever is slowing the original
  // targets. Fall back to re-sending to contacted-but-silent replicas,
  // which only helps when the *message* was lost rather than the replica
  // slow — both re-issues are deduplicated per replica on response.
  while (budget > 0 && !pending.untried.empty()) {
    const NodeId replica = pending.untried.front();
    pending.untried.erase(pending.untried.begin());
    pending.replicas.push_back(replica);
    pending.hedge_only.push_back(replica);
    ++cluster_->metrics().hedged_reads_sent;
    if (pending.trace_id != 0) {
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kHedge,
          .leg = obs::WarsLeg::kR,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = now,
          .a = 1});
    }
    SendReadRequest(pending.key, replica, request_id, pending.trace_id,
                    /*is_hedge=*/true);
    --budget;
  }
  for (size_t i = 0; budget > 0 && i < pending.replicas.size(); ++i) {
    const NodeId replica = pending.replicas[i];
    bool responded = false;
    for (int r = 0; r < pending.responses; ++r) {
      if (pending.all[r].replica == replica) {
        responded = true;
        break;
      }
    }
    if (responded) continue;
    if (std::find(pending.hedge_only.begin(), pending.hedge_only.end(),
                  replica) != pending.hedge_only.end()) {
      continue;  // just hedged to it above
    }
    ++cluster_->metrics().hedged_reads_sent;
    if (pending.trace_id != 0) {
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kHedge,
          .leg = obs::WarsLeg::kR,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = now,
          .a = 0});
    }
    SendReadRequest(pending.key, replica, request_id, pending.trace_id,
                    /*is_hedge=*/true);
    --budget;
  }
}

void Node::OnReadResponse(uint64_t request_id, NodeId replica,
                          std::optional<VersionedValue> value) {
  OnReadResponseValue(request_id, replica,
                      value.has_value() ? &*value : nullptr);
}

void Node::OnReadResponseValue(uint64_t request_id, NodeId replica,
                               const VersionedValue* value) {
  PendingRead* slot = FindRead(request_id);
  if (slot == nullptr) return;
  PendingRead& pending = *slot;
  // Dedup by replica: a hedge re-issue or a network-duplicated message can
  // make the same replica answer twice, and a second response must never
  // count toward R (or be double-counted by read repair / the staleness
  // detector).
  for (int i = 0; i < pending.responses; ++i) {
    if (pending.all[i].replica == replica) {
      ++cluster_->metrics().duplicate_responses_suppressed;
      return;
    }
  }
  if (pending.responses == static_cast<int>(pending.all.size())) {
    pending.all.emplace_back();
  }
  ReadResponse& entry = pending.all[pending.responses++];
  entry.replica = replica;
  entry.has_value = value != nullptr;
  if (value != nullptr) entry.value = *value;  // buffers reused in place

  if (pending.trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = pending.trace_id,
        .kind = obs::TraceEventKind::kResponse,
        .leg = obs::WarsLeg::kS,
        .src = replica,
        .dst = id_,
        .t_start = now,
        .t_end = now,
        .a = value != nullptr ? value->sequence : 0,
        .b = value != nullptr ? 1 : 0});
  }

  if (value != nullptr) {
    if (!pending.has_best_all || value->NewerThan(pending.best_all)) {
      pending.best_all = *value;
      pending.has_best_all = true;
    }
  }

  if (!pending.returned()) {
    // Still assembling the first R responses.
    if (value != nullptr &&
        (!pending.has_best || value->NewerThan(pending.best))) {
      pending.best = *value;
      pending.has_best = true;
    }
    if (pending.responses >= pending.required) {
      ReturnRead(pending, replica);
    }
  } else {
    // A late response (after the client already got its answer).
    pending.late_sequences.push_back(value != nullptr ? value->sequence : 0);
  }

  MaybeFinishReadCollection(pending);
}

void Node::ReturnRead(PendingRead& pending, NodeId replica) {
  // Return pass: hand the freshest of the first R responses to the client
  // and switch the op to late collection.
  pending.pass = ReadPass::kLateCollect;
  if (std::find(pending.hedge_only.begin(), pending.hedge_only.end(),
                replica) != pending.hedge_only.end()) {
    // The response that completed R came from a replica only a hedge
    // contacted: the hedge saved this read's latency.
    ++cluster_->metrics().hedged_reads_won;
  }
  ReadResult result;
  result.ok = true;
  result.status = Status::Ok();
  result.trace_id = pending.trace_id;
  result.start_time = pending.start_time;
  result.latency_ms = cluster_->sim().now() - pending.start_time;
  if (pending.has_best) result.value = pending.best;
  result.required = pending.required;
  result.ring_version = cluster_->ring_version();
  cluster_->metrics().read_latency.Record(result.latency_ms);
  cluster_->metrics().shards[pending.shard].read_latency.Record(
      result.latency_ms);
  cluster_->RecordReadOutcome(pending.key,
                              pending.has_best ? pending.best.sequence : 0,
                              pending.start_time);
  if (pending.trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = pending.trace_id,
        .kind = obs::TraceEventKind::kReturn,
        .leg = obs::WarsLeg::kS,
        .src = replica,
        .dst = id_,
        .t_start = now,
        .t_end = now,
        .a = pending.has_best ? pending.best.sequence : 0,
        .b = pending.required});
  }
  if (pending.done) pending.done(result);
}

void Node::MaybeFinishReadCollection(PendingRead& pending) {
  if (pending.responses < static_cast<int>(pending.replicas.size())) return;
  CloseReadCollection(pending);
}

void Node::CloseReadCollection(PendingRead& pending) {
  // Close pass: every replica answered (or the timeout sealed the window) —
  // fire the detector hook, repair stale replicas, retire the slot.
  if (cluster_->late_read_hook()) {
    LateReadInfo info;
    info.returned_sequence = pending.has_best ? pending.best.sequence : 0;
    info.read_start_time = pending.start_time;
    info.late_response_sequences = pending.late_sequences;
    info.key = pending.key;
    info.shard = pending.shard;
    cluster_->late_read_hook()(info);
  }
  if (cluster_->config().read_repair) SendReadRepairs(pending);
  RetireRead(pending);
}

void Node::SendReadRepairs(const PendingRead& pending) {
  if (!pending.has_best_all) return;
  const KvsConfig& config = cluster_->config();
  const VersionedValue& freshest = pending.best_all;
  // One arena slot shared by every repair leg of this read.
  const VersionRef freshest_ref = cluster_->version_arena().Acquire(freshest);
  const double now = cluster_->sim().now();
  for (int i = 0; i < pending.responses; ++i) {
    const ReadResponse& entry = pending.all[i];
    const bool stale =
        !entry.has_value || freshest.NewerThan(entry.value);
    if (!stale) continue;
    const NodeId replica = entry.replica;
    const double delay = config.legs.w->Sample(rng_);
    Node* target = &cluster_->node(replica);
    const Key key = pending.key;
    ++cluster_->metrics().read_repairs_sent;
    // Fire-and-forget: anti-entropy eventually covers a dropped repair.
    double effective_delay = delay;
    const bool delivered = cluster_->network().SendWithDelay(
        id_, replica, delay,
        [target, key, ref = freshest_ref, coordinator = id_,
         trace_id = pending.trace_id]() {
          target->HandleWriteRequest(key, *ref, coordinator,
                                     /*request_id=*/0, /*is_repair=*/true,
                                     Node::kNoHint, trace_id);
        },
        &effective_delay);
    if (pending.trace_id != 0) {
      obs::Tracer& tracer = cluster_->tracer();
      tracer.Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kRepair,
          .leg = obs::WarsLeg::kW,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = now,
          .a = freshest.sequence,
          .b = entry.has_value ? entry.value.sequence : 0});
      tracer.Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = delivered ? obs::TraceEventKind::kLegSend
                            : obs::TraceEventKind::kLegDrop,
          .leg = obs::WarsLeg::kW,
          .src = id_,
          .dst = replica,
          .t_start = now,
          .t_end = delivered ? now + effective_delay : now,
          .a = freshest.sequence,
          .b = 1});
    }
  }
}

void Node::OnReadTimeout(uint64_t request_id) {
  PendingRead* slot = FindRead(request_id);
  if (slot == nullptr) return;
  PendingRead& pending = *slot;
  if (!pending.returned()) {
    // Timeout pass: fewer than R distinct responses before the deadline.
    pending.pass = ReadPass::kLateCollect;
    ++cluster_->metrics().reads_failed;
    if (pending.trace_id != 0) {
      const double now = cluster_->sim().now();
      cluster_->tracer().Record(obs::TraceEvent{
          .trace_id = pending.trace_id,
          .kind = obs::TraceEventKind::kTimeout,
          .leg = obs::WarsLeg::kS,
          .src = id_,
          .t_start = now,
          .t_end = now,
          .a = pending.responses,
          .b = pending.required});
    }
    ReadResult result;
    result.ok = false;
    result.status = Status::TimedOut("read: fewer than R responses");
    result.trace_id = pending.trace_id;
    result.start_time = pending.start_time;
    result.latency_ms = cluster_->sim().now() - pending.start_time;
    result.required = pending.required;
    result.ring_version = cluster_->ring_version();
    if (pending.done) pending.done(result);
  }
  // Close the collection window with whatever arrived.
  CloseReadCollection(pending);
}

// ---------------------------------------------------------------------------
// Replica handlers

void Node::HandleWriteRequest(Key key, const VersionedValue& value,
                              NodeId coordinator, uint64_t request_id,
                              bool is_repair, NodeId hint_home,
                              uint64_t trace_id) {
  if (!alive_) return;  // fail-stop: crashed nodes drop everything
  assert(is_replica_);
  if (hint_home != kNoHint && hint_home != id_) {
    // Sloppy-quorum substitute: park the value for the home replica instead
    // of serving it (hinted values are not in this node's read path).
    StoreHint(key, hint_home, value);
  } else {
    storage_.Put(key, value);
  }
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = obs::TraceEventKind::kReplicaServe,
        .leg = obs::WarsLeg::kW,
        .src = id_,
        .t_start = now,
        .t_end = now,
        .a = value.sequence,
        .b = is_repair ? 1 : 0});
  }
  if (is_repair) return;  // repairs are fire-and-forget
  const double delay =
      coordinator == id_ ? 0.0 : cluster_->config().legs.a->Sample(rng_);
  if (cluster_->leg_profiler() != nullptr && coordinator != id_) {
    cluster_->leg_profiler()->Record(LegProfiler::Leg::kWriteAck, delay);
  }
  Node* target = &cluster_->node(coordinator);
  // A dropped ack leaves the coordinator's write timeout armed.
  double effective_delay = delay;
  const bool delivered = cluster_->network().SendWithDelay(
      id_, coordinator, delay,
      [target, request_id, replica = id_]() {
        target->OnWriteAck(request_id, replica);
      },
      &effective_delay);
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = delivered ? obs::TraceEventKind::kLegSend
                          : obs::TraceEventKind::kLegDrop,
        .leg = obs::WarsLeg::kA,
        .src = id_,
        .dst = coordinator,
        .t_start = now,
        .t_end = delivered ? now + effective_delay : now,
        .a = value.sequence});
  }
}

void Node::StoreHint(Key key, NodeId home, const VersionedValue& value) {
  hints_.push_back(Hint{key, home, value});
  ++cluster_->metrics().hints_stored;
  if (!hint_task_scheduled_) {
    hint_task_scheduled_ = true;
    (void)cluster_->sim().ScheduleTimer(
        cluster_->config().hint_delivery_interval_ms,
        [this]() { DeliverHints(); });
  }
}

void Node::DeliverHints() {
  hint_task_scheduled_ = false;
  if (!alive_) {
    // A crashed substitute retries once it recovers and the task refires.
    if (!hints_.empty()) {
      hint_task_scheduled_ = true;
      (void)cluster_->sim().ScheduleTimer(
          cluster_->config().hint_delivery_interval_ms,
          [this]() { DeliverHints(); });
    }
    return;
  }
  const FailureDetector* detector = cluster_->failure_detector();
  // In-place compaction: undeliverable hints slide forward (order
  // preserved), delivered ones are forwarded and dropped.
  size_t kept = 0;
  for (size_t i = 0; i < hints_.size(); ++i) {
    Hint& hint = hints_[i];
    if (detector != nullptr && detector->IsSuspected(hint.home)) {
      if (kept != i) hints_[kept] = std::move(hint);
      ++kept;
      continue;
    }
    // Forward to the home replica as a fire-and-forget replication write.
    const double delay = cluster_->config().legs.w->Sample(rng_);
    Node* target = &cluster_->node(hint.home);
    ++cluster_->metrics().hints_delivered;
    // Fire-and-forget: an undelivered hint stays queued until the next pass.
    (void)cluster_->network().SendWithDelay(
        id_, hint.home, delay,
        [target, key = hint.key,
         ref = cluster_->version_arena().Acquire(hint.value),
         from = id_]() {
          target->HandleWriteRequest(key, *ref, from, /*request_id=*/0,
                                     /*is_repair=*/true);
        });
  }
  hints_.resize(kept);
  if (!hints_.empty()) {
    hint_task_scheduled_ = true;
    (void)cluster_->sim().ScheduleTimer(
        cluster_->config().hint_delivery_interval_ms,
        [this]() { DeliverHints(); });
  }
}

void Node::HandleReadRequest(Key key, NodeId coordinator, uint64_t request_id,
                             uint64_t trace_id) {
  if (!alive_) return;
  assert(is_replica_);
  const VersionedValue* stored = storage_.Find(key);
  const int64_t held_sequence = stored != nullptr ? stored->sequence : 0;
  const double delay =
      coordinator == id_ ? 0.0 : cluster_->config().legs.s->Sample(rng_);
  if (cluster_->leg_profiler() != nullptr && coordinator != id_) {
    cluster_->leg_profiler()->Record(LegProfiler::Leg::kReadResponse, delay);
  }
  Node* target = &cluster_->node(coordinator);
  VersionRef ref;
  if (stored != nullptr) ref = cluster_->version_arena().Acquire(*stored);
  // A dropped response leaves the coordinator's hedge/timeout timers armed.
  double effective_delay = delay;
  const bool delivered = cluster_->network().SendWithDelay(
      id_, coordinator, delay,
      [target, request_id, replica = id_, ref = std::move(ref)]() {
        target->OnReadResponseValue(request_id, replica,
                                    ref ? &*ref : nullptr);
      },
      &effective_delay);
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    obs::Tracer& tracer = cluster_->tracer();
    tracer.Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = obs::TraceEventKind::kReplicaServe,
        .leg = obs::WarsLeg::kR,
        .src = id_,
        .t_start = now,
        .t_end = now,
        .a = held_sequence});
    tracer.Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = delivered ? obs::TraceEventKind::kLegSend
                          : obs::TraceEventKind::kLegDrop,
        .leg = obs::WarsLeg::kS,
        .src = id_,
        .dst = coordinator,
        .t_start = now,
        .t_end = delivered ? now + effective_delay : now,
        .a = held_sequence});
  }
}

}  // namespace kvs
}  // namespace pbs
