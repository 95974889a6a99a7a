#include "kvs/client.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/closed_form.h"
#include "kvs/cluster.h"

namespace pbs {
namespace kvs {

ClientSession::ClientSession(Cluster* cluster, NodeId coordinator,
                             int32_t client_id)
    : cluster_(cluster),
      coordinator_(coordinator),
      client_id_(client_id),
      retry_rng_(cluster->config().seed ^ 0xC11E47ULL ^
                 (static_cast<uint64_t>(client_id) << 32)) {}

void ClientSession::Write(Key key, std::string value, WriteCallback done) {
  VersionedValue versioned;
  versioned.sequence = cluster_->NextSequenceFor(key);
  versioned.stamp.timestamp = cluster_->sim().now();
  versioned.stamp.writer = client_id_;
  versioned.value = std::move(value);
  const double now = cluster_->sim().now();
  const uint64_t trace_id =
      cluster_->tracer().StartOp(/*is_write=*/true, key, coordinator_, now);
  StartWriteAttempt(key, std::move(versioned), std::move(done), /*attempt=*/1,
                    now, trace_id);
}

double ClientSession::AttemptTimeoutMs(double op_start) const {
  const RetryOptions& policy = cluster_->config().retry;
  if (policy.deadline_ms <= 0.0) return 0.0;  // configured timeout applies
  const double remaining =
      policy.deadline_ms - (cluster_->sim().now() - op_start);
  // Attempts only start with budget left, but clamp anyway so a zero
  // override never silently falls back to the configured timeout.
  return std::min(cluster_->config().request_timeout_ms,
                  std::max(remaining, 1e-9));
}

double ClientSession::NextRetryDelayMs(int attempt, double op_start,
                                       bool* deadline_limited) {
  const RetryOptions& policy = cluster_->config().retry;
  if (attempt >= policy.max_attempts) return -1.0;
  const double backoff =
      std::min(policy.backoff_max_ms,
               policy.backoff_base_ms *
                   std::pow(2.0, static_cast<double>(attempt - 1)));
  const double delay = backoff * (0.5 + 0.5 * retry_rng_.NextDouble());
  if (policy.deadline_ms > 0.0) {
    const double elapsed = cluster_->sim().now() - op_start;
    if (elapsed + delay >= policy.deadline_ms) {
      ++cluster_->metrics().client_deadline_misses;
      if (deadline_limited != nullptr) *deadline_limited = true;
      return -1.0;  // waiting out the backoff would blow the budget
    }
  }
  return delay;
}

void ClientSession::StartWriteAttempt(Key key, VersionedValue value,
                                      WriteCallback done, int attempt,
                                      double op_start, uint64_t trace_id) {
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = obs::TraceEventKind::kAttempt,
        .src = coordinator_,
        .t_start = now,
        .t_end = now,
        .a = attempt});
  }
  // Keep a copy for a potential retry; re-sending the same sequence is
  // idempotent at the replicas (last-write-wins on the version order).
  VersionedValue payload = value;
  cluster_->node(coordinator_)
      .CoordinateWrite(
          key, std::move(payload),
          [this, key, value = std::move(value), done = std::move(done),
           attempt, op_start, trace_id](const WriteResult& r) mutable {
            WriteResult result = r;
            result.attempts = attempt;
            result.trace_id = trace_id;
            if (!result.ok) {
              bool deadline_limited = false;
              const double delay =
                  NextRetryDelayMs(attempt, op_start, &deadline_limited);
              if (delay >= 0.0) {
                ++cluster_->metrics().client_write_retries;
                if (trace_id != 0) {
                  const double now = cluster_->sim().now();
                  cluster_->tracer().Record(obs::TraceEvent{
                      .trace_id = trace_id,
                      .kind = obs::TraceEventKind::kBackoff,
                      .src = coordinator_,
                      .t_start = now,
                      .t_end = now + delay,
                      .a = attempt});
                }
                (void)cluster_->sim().ScheduleTimer(
                    delay, [this, key, value = std::move(value),
                            done = std::move(done), attempt, op_start,
                            trace_id]() mutable {
                      StartWriteAttempt(key, std::move(value), std::move(done),
                                        attempt + 1, op_start, trace_id);
                    });
                return;
              }
              if (deadline_limited) {
                result.status = Status::DeadlineExceeded(
                    "write: retry deadline budget exhausted");
              }
            }
            // Client-visible latency spans every attempt and backoff.
            result.latency_ms = cluster_->sim().now() - op_start;
            if (trace_id != 0) {
              const double now = cluster_->sim().now();
              cluster_->tracer().Record(obs::TraceEvent{
                  .trace_id = trace_id,
                  .kind = obs::TraceEventKind::kOpEnd,
                  .src = coordinator_,
                  .t_start = op_start,
                  .t_end = now,
                  .a = static_cast<int64_t>(result.status.code()),
                  .b = result.sequence});
            }
            if (result.ring_version > known_ring_version_) {
              known_ring_version_ = result.ring_version;
            }
            if (done) done(result);
          },
          AttemptTimeoutMs(op_start), trace_id, known_ring_version_);
}

double ClientSession::ReadRatePerMs(Key key) const {
  const auto it = read_rates_.find(key);
  return it == read_rates_.end()
             ? 0.0
             : it->second.EventsPerMs(cluster_->sim().now());
}

double ClientSession::PredictedMonotonicViolationProbability(Key key) const {
  const double gamma_cr = ReadRatePerMs(key);
  const double gamma_gw = cluster_->WriteRatePerMsFor(key);
  if (gamma_cr <= 0.0 || gamma_gw < 0.0) return 0.0;
  return MonotonicReadsViolationProbability(cluster_->config().quorum,
                                            gamma_gw, gamma_cr);
}

void ClientSession::MultiRead(const std::vector<Key>& keys,
                              MultiReadCallback done) {
  if (keys.empty()) {
    if (done) done(MultiReadResult{true, 0.0, {}});
    return;
  }
  struct State {
    size_t outstanding;
    MultiReadResult result;
    MultiReadCallback done;
  };
  auto state = std::make_shared<State>();
  state->outstanding = keys.size();
  state->result.ok = true;
  state->result.results.resize(keys.size());
  state->done = std::move(done);
  for (size_t i = 0; i < keys.size(); ++i) {
    Read(keys[i], [state, i](const ReadResult& r) {
      state->result.results[i] = r;
      state->result.ok = state->result.ok && r.ok;
      state->result.latency_ms =
          std::max(state->result.latency_ms, r.latency_ms);
      if (--state->outstanding == 0 && state->done) {
        state->done(state->result);
      }
    });
  }
}

void ClientSession::Read(Key key, ReadCallback done) {
  ++reads_issued_;
  const double now = cluster_->sim().now();
  read_rates_.try_emplace(key).first->second.Record(now);
  const uint64_t trace_id =
      cluster_->tracer().StartOp(/*is_write=*/false, key, coordinator_, now);
  StartReadAttempt(key, std::move(done), /*attempt=*/1, now, trace_id);
}

void ClientSession::StartReadAttempt(Key key, ReadCallback done, int attempt,
                                     double op_start, uint64_t trace_id) {
  const KvsConfig& config = cluster_->config();
  int required_override = 0;
  if (attempt > 1 && config.retry.downgrade_reads) {
    // Shed one response requirement per retry (R, R-1, ..., 1): trade
    // consistency for availability once the full quorum proved unreachable.
    required_override = std::max(1, config.quorum.r - (attempt - 1));
  }
  if (trace_id != 0) {
    const double now = cluster_->sim().now();
    cluster_->tracer().Record(obs::TraceEvent{
        .trace_id = trace_id,
        .kind = obs::TraceEventKind::kAttempt,
        .src = coordinator_,
        .t_start = now,
        .t_end = now,
        .a = attempt,
        .b = required_override});
  }
  cluster_->node(coordinator_)
      .CoordinateRead(
          key,
          [this, key, done = std::move(done), attempt, op_start,
           required_override, trace_id](const ReadResult& r) mutable {
            ReadResult result = r;
            result.attempts = attempt;
            result.trace_id = trace_id;
            if (!result.ok) {
              bool deadline_limited = false;
              const double delay =
                  NextRetryDelayMs(attempt, op_start, &deadline_limited);
              if (delay >= 0.0) {
                ++cluster_->metrics().client_read_retries;
                if (trace_id != 0) {
                  const double now = cluster_->sim().now();
                  cluster_->tracer().Record(obs::TraceEvent{
                      .trace_id = trace_id,
                      .kind = obs::TraceEventKind::kBackoff,
                      .src = coordinator_,
                      .t_start = now,
                      .t_end = now + delay,
                      .a = attempt});
                }
                (void)cluster_->sim().ScheduleTimer(
                    delay,
                    [this, key, done = std::move(done), attempt, op_start,
                     trace_id]() mutable {
                      StartReadAttempt(key, std::move(done), attempt + 1,
                                       op_start, trace_id);
                    });
                return;
              }
              if (deadline_limited) {
                result.status = Status::DeadlineExceeded(
                    "read: retry deadline budget exhausted");
              }
            }
            if (result.ok && required_override > 0 &&
                required_override < cluster_->config().quorum.r) {
              result.downgraded = true;
              result.status = Status::Downgraded(
                  "read: retry accepted fewer than the configured R");
              ++cluster_->metrics().consistency_downgrades;
            }
            result.latency_ms = cluster_->sim().now() - op_start;
            if (trace_id != 0) {
              const double now = cluster_->sim().now();
              cluster_->tracer().Record(obs::TraceEvent{
                  .trace_id = trace_id,
                  .kind = obs::TraceEventKind::kOpEnd,
                  .src = coordinator_,
                  .t_start = op_start,
                  .t_end = now,
                  .a = static_cast<int64_t>(result.status.code()),
                  .b = cluster_->LatestSequenceFor(key)});
            }
            FinishRead(key, result, done);
          },
          required_override, AttemptTimeoutMs(op_start), trace_id,
          known_ring_version_);
}

void ClientSession::FinishRead(Key key, const ReadResult& result,
                               ReadCallback& done) {
  if (result.ring_version > known_ring_version_) {
    known_ring_version_ = result.ring_version;
  }
  if (result.ok) {
    const int64_t sequence =
        result.value.has_value() ? result.value->sequence : 0;
    auto [it, inserted] = last_read_sequence_.try_emplace(key, 0);
    if (sequence < it->second) {
      // Downgraded reads are *not* exempt: a stale answer accepted under
      // R=1 still violates the session guarantee and is counted honestly.
      ++monotonic_violations_;
      ++cluster_->metrics().monotonic_read_violations;
    } else {
      it->second = sequence;
    }
    ++cluster_->metrics().session_reads;
  }
  if (done) done(result);
}

}  // namespace kvs
}  // namespace pbs
