#include "kvs/controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>

#include "core/backend.h"
#include "core/sla.h"
#include "dist/empirical.h"
#include "kvs/cluster.h"
#include "obs/json.h"
#include "util/stats.h"

namespace pbs {
namespace kvs {

namespace {

// Measured-vs-promised disagreement tolerated before rolling back the
// previous step (fractional: 0.1 = the measured window may be 10% worse
// than the SLA bound the predictor promised).
constexpr double kRollbackTolerance = 0.1;

// Hedge-quantile step per epoch when latency needs tightening.
constexpr double kHedgeQuantileStep = 0.04;

// Mix-probability step per epoch (McKenzie fractional quorums).
constexpr double kMixStep = 0.25;

// Epochs to hold after a rollback before trying another step.
constexpr int kCooldownEpochs = 2;

// FNV-1a 64-bit, folded over raw bytes.
inline uint64_t FnvFold(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

inline uint64_t FnvInt(uint64_t hash, int64_t value) {
  return FnvFold(hash, &value, sizeof(value));
}

inline uint64_t FnvDouble(uint64_t hash, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvFold(hash, &bits, sizeof(bits));
}

}  // namespace

ConsistencyController::ConsistencyController(Cluster* cluster)
    : cluster_(cluster), sla_(cluster->config().sla) {
  assert(cluster_->config().controller.enabled);
  assert(sla_.enabled());
}

void ConsistencyController::Start() {
  if (started_) return;
  started_ = true;
  if (cluster_->leg_profiler() == nullptr) {
    cluster_->set_leg_profiler(&owned_profiler_);
  }
  // Initial configuration enters the history as decision 0 so every traced
  // read — including ones before the first control tick — joins to a
  // record.
  Decision initial;
  initial.id = 0;
  initial.epoch = 0;
  initial.time_ms = cluster_->sim().now();
  initial.action = "initial";
  const KnobState knobs = CurrentKnobs();
  initial.quorum = knobs.quorum;
  initial.hedge_enabled = knobs.hedge_enabled;
  initial.hedge_quantile = knobs.hedge_quantile;
  initial.retry_attempts = knobs.retry_attempts;
  initial.retry_deadline_ms = knobs.retry_deadline_ms;
  AppendHistory(initial);
  cluster_->set_active_decision_id(0);
  cluster_->sim().ScheduleTimer(cluster_->config().controller.epoch_ms,
                                [this]() { Tick(); });
}

ConsistencyController::KnobState ConsistencyController::CurrentKnobs() const {
  const KvsConfig& config = cluster_->config();
  KnobState knobs;
  if (cluster_->read_mix().mixing()) {
    knobs.quorum = cluster_->read_mix();
  } else {
    knobs.quorum = MixedQuorum{config.quorum.n, config.quorum.r,
                               config.quorum.r, config.quorum.w, 0.0};
  }
  knobs.hedge_enabled = config.hedge.enabled;
  knobs.hedge_quantile = config.hedge.quantile;
  knobs.retry_attempts = config.retry.max_attempts;
  knobs.retry_deadline_ms = config.retry.deadline_ms;
  return knobs;
}

ConsistencyController::Measurement ConsistencyController::MeasureWindow() {
  Measurement m;
  const auto& samples = cluster_->metrics().read_latency.samples();
  m.reads = static_cast<int64_t>(samples.size() - read_latency_seen_);
  if (m.reads > 0) {
    std::vector<double> window(samples.begin() + read_latency_seen_,
                               samples.end());
    std::sort(window.begin(), window.end());
    m.read_p99_ms = QuantileSorted(window, 0.99);
  }
  const int64_t fresh = cluster_->metrics().reads_fresh_measured;
  const int64_t stale = cluster_->metrics().reads_stale_measured;
  const int64_t fresh_delta = fresh - fresh_seen_;
  const int64_t stale_delta = stale - stale_seen_;
  if (fresh_delta + stale_delta > 0) {
    m.fresh_fraction = static_cast<double>(fresh_delta) /
                       static_cast<double>(fresh_delta + stale_delta);
  }
  m.failed_reads = cluster_->metrics().reads_failed - reads_failed_seen_;

  read_latency_seen_ = samples.size();
  fresh_seen_ = fresh;
  stale_seen_ = stale;
  reads_failed_seen_ = cluster_->metrics().reads_failed;
  return m;
}

ReplicaLatencyModelPtr ConsistencyController::SenseModel() const {
  const KvsConfig& config = cluster_->config();
  const LegProfiler* profiler = cluster_->leg_profiler();
  const int min_samples = config.controller.min_leg_samples;
  using Leg = LegProfiler::Leg;
  if (profiler != nullptr &&
      static_cast<int>(profiler->count(Leg::kWriteRequest)) >= min_samples &&
      static_cast<int>(profiler->count(Leg::kWriteAck)) >= min_samples &&
      static_cast<int>(profiler->count(Leg::kReadRequest)) >= min_samples &&
      static_cast<int>(profiler->count(Leg::kReadResponse)) >= min_samples) {
    WarsDistributions fitted;
    fitted.name = "controller-fit";
    fitted.w = Empirical(profiler->samples(Leg::kWriteRequest));
    fitted.a = Empirical(profiler->samples(Leg::kWriteAck));
    fitted.r = Empirical(profiler->samples(Leg::kReadRequest));
    fitted.s = Empirical(profiler->samples(Leg::kReadResponse));
    return MakeIidModel(fitted, config.quorum.n);
  }
  return MakeIidModel(config.legs, config.quorum.n);
}

MixedQuorumPredictor ConsistencyController::MakeEpochPredictor(
    const ReplicaLatencyModelPtr& model, const MixedQuorum& current) const {
  const KvsConfig& config = cluster_->config();
  MixedQuorumPredictor::Options options;
  options.backend = config.controller.backend;
  options.trials = config.controller.trials_per_eval;
  options.read_fanout = config.read_fanout;
  // Serial inner evaluation: the controller already runs inside a (possibly
  // campaign-parallel) trial, and a serial WARS run is trivially
  // deterministic regardless of the outer thread count.
  options.exec.threads = 1;
  options.grid = AnalyticGridOptions{config.controller.grid_max_ms,
                                     config.controller.grid_bins,
                                     config.controller.grid_auto_max};
  return MixedQuorumPredictor(sla_, model, current, options);
}

MixedQuorumEvaluation ConsistencyController::Predict(
    const MixedQuorum& quorum, const MixedQuorumPredictor& predictor,
    uint64_t salt) const {
  const KvsConfig& config = cluster_->config();
  const uint64_t seed = (config.seed ^ 0xADA947ULL) +
                        static_cast<uint64_t>(epoch_) * 1000003ULL +
                        salt * 10007ULL;
  return predictor.Evaluate(quorum, seed);
}

void ConsistencyController::Actuate(const KnobState& next) {
  const KvsConfig& config = cluster_->config();
  if (next.quorum.w != config.quorum.w) {
    const Status status = cluster_->UpdateQuorum(config.quorum.r,
                                                 next.quorum.w);
    assert(status.ok());
    (void)status;
  }
  const Status mix_status = cluster_->UpdateReadMix(
      next.quorum.r_lo, next.quorum.r_hi, next.quorum.mix);
  assert(mix_status.ok());
  (void)mix_status;
  if (next.hedge_enabled != config.hedge.enabled ||
      next.hedge_quantile != config.hedge.quantile) {
    HedgeOptions hedge = config.hedge;
    hedge.enabled = next.hedge_enabled;
    hedge.quantile = next.hedge_quantile;
    const Status status = cluster_->UpdateHedge(hedge);
    assert(status.ok());
    (void)status;
  }
  if (next.retry_attempts != config.retry.max_attempts ||
      next.retry_deadline_ms != config.retry.deadline_ms) {
    RetryOptions retry = config.retry;
    retry.max_attempts = next.retry_attempts;
    retry.deadline_ms = next.retry_deadline_ms;
    const Status status = cluster_->UpdateRetry(retry);
    assert(status.ok());
    (void)status;
  }
}

void ConsistencyController::AppendHistory(const Decision& decision) {
  obs::AdaptationRecord record;
  record.decision_id = decision.id;
  record.epoch = decision.epoch;
  record.valid_from_ms = decision.time_ms;
  record.r_lo = decision.quorum.r_lo;
  record.r_hi = decision.quorum.r_hi;
  record.mix = decision.quorum.mix;
  record.w = decision.quorum.w;
  record.hedge_enabled = decision.hedge_enabled;
  record.hedge_quantile = decision.hedge_quantile;
  record.retry_max_attempts = decision.retry_attempts;
  record.retry_deadline_ms = decision.retry_deadline_ms;
  config_history_.push_back(record);
}

void ConsistencyController::Tick() {
  const ControllerOptions& opts = cluster_->config().controller;
  ++epoch_;
  ++cluster_->metrics().controller_epochs;
  const Measurement m = MeasureWindow();

  // The window just measured is the one the previous decision's chosen arm
  // governed: backfill its outcome so the candidate audit pairs every
  // prediction with what actually happened.
  if (!decisions_.empty()) {
    Decision& previous = decisions_.back();
    previous.outcome_fresh = m.fresh_fraction;
    previous.outcome_p99_ms = m.read_p99_ms;
    previous.outcome_reads = m.reads;
  }

  Decision decision;
  decision.id = static_cast<int64_t>(decisions_.size()) + 1;
  decision.epoch = epoch_;
  decision.time_ms = cluster_->sim().now();
  decision.measured_fresh = m.fresh_fraction;
  decision.measured_p99_ms = m.read_p99_ms;
  decision.measured_reads = m.reads;

  KnobState current = CurrentKnobs();
  const bool measured_fresh_violation =
      m.fresh_fraction >= 0.0 && m.fresh_fraction < sla_.fresh_probability;
  const bool measured_latency_violation =
      m.reads > 0 && m.read_p99_ms > sla_.read_p99_ms;

  const auto finalize = [&](const KnobState& state) {
    decision.quorum = state.quorum;
    decision.hedge_enabled = state.hedge_enabled;
    decision.hedge_quantile = state.hedge_quantile;
    decision.retry_attempts = state.retry_attempts;
    decision.retry_deadline_ms = state.retry_deadline_ms;
    decisions_.push_back(decision);
    cluster_->set_active_decision_id(decision.id);
    cluster_->sim().ScheduleTimer(opts.epoch_ms, [this]() { Tick(); });
  };
  const auto actuate_step = [&](const KnobState& next,
                                const std::string& action) {
    pre_step_ = current;
    step_armed_ = true;
    last_step_action_ = action;
    Actuate(next);
    ++cluster_->metrics().controller_steps;
    decision.action = action;
    AppendHistory([&] {
      Decision d = decision;
      d.quorum = next.quorum;
      d.hedge_enabled = next.hedge_enabled;
      d.hedge_quantile = next.hedge_quantile;
      d.retry_attempts = next.retry_attempts;
      d.retry_deadline_ms = next.retry_deadline_ms;
      return d;
    }());
    finalize(next);
  };

  // 1. Rollback: the previous step promised feasibility; if the measured
  // window disagrees beyond the tolerance, revert it and cool down.
  if (step_armed_) {
    step_armed_ = false;
    const bool fresh_broken =
        m.fresh_fraction >= 0.0 &&
        m.fresh_fraction < sla_.fresh_probability * (1.0 - kRollbackTolerance);
    const bool latency_broken =
        m.reads > 0 &&
        m.read_p99_ms > sla_.read_p99_ms * (1.0 + kRollbackTolerance);
    if (fresh_broken || latency_broken) {
      Actuate(pre_step_);
      current = pre_step_;
      cooldown_ = kCooldownEpochs;
      ++cluster_->metrics().controller_rollbacks;
      decision.action = "rollback:" + last_step_action_;
      AppendHistory([&] {
        Decision d = decision;
        d.quorum = current.quorum;
        d.hedge_enabled = current.hedge_enabled;
        d.hedge_quantile = current.hedge_quantile;
        d.retry_attempts = current.retry_attempts;
        d.retry_deadline_ms = current.retry_deadline_ms;
        return d;
      }());
      finalize(current);
      return;
    }
  }

  // 2. Cooldown: sit out the epochs after a rollback.
  if (cooldown_ > 0) {
    --cooldown_;
    ++cluster_->metrics().controller_holds;
    decision.action = "cooldown";
    finalize(current);
    return;
  }

  // 3. Tail/availability relief ladder: when the *measured* read p99 is
  // over budget — or reads are failing outright (timeouts leave no latency
  // sample, so a dead replica shows up as failures, not p99) — spend this
  // epoch's one step on tail tolerance rather than a quorum move. Hedging
  // attacks both without widening the staleness exposure (the guarded-step
  // invariant): the hedge recruits an untried replica, rescuing reads whose
  // quorum subset landed on the degraded node.
  const bool needs_tail_relief =
      (measured_latency_violation || m.failed_reads > 0) &&
      !measured_fresh_violation;
  if (needs_tail_relief && !current.hedge_enabled) {
    KnobState next = current;
    next.hedge_enabled = true;
    actuate_step(next, "hedge_on");
    return;
  }

  // 4. Availability relief: reads still failing with the hedge already on —
  // grant a retry budget (bounded; deadline caps the added tail).
  if (m.failed_reads > 0 && current.retry_attempts < 3) {
    KnobState next = current;
    next.retry_attempts = current.retry_attempts + 1;
    if (next.retry_deadline_ms <= 0.0) {
      next.retry_deadline_ms = 3.0 * cluster_->config().request_timeout_ms;
    }
    actuate_step(next, "retry+");
    return;
  }

  // 5. Hedge ladder, second rung: p99 still over budget — tighten the
  // hedge trigger quantile stepwise (floor 0.5: at the median the second
  // request is no longer a hedge but a duplicate).
  if (measured_latency_violation && !measured_fresh_violation &&
      current.hedge_enabled &&
      current.hedge_quantile - kHedgeQuantileStep > 0.5) {
    KnobState next = current;
    next.hedge_quantile -= kHedgeQuantileStep;
    actuate_step(next, "hedge_tighten");
    return;
  }

  // 6. Quorum predictor: re-fit legs, re-run WARS on the incumbent and its
  // one-knob-step neighbors, and switch under hysteresis.
  const ReplicaLatencyModelPtr model = SenseModel();
  const MixedQuorumPredictor predictor =
      MakeEpochPredictor(model, current.quorum);
  const MixedQuorumEvaluation incumbent_eval =
      Predict(current.quorum, predictor, /*salt=*/0);
  decision.predicted_fresh = incumbent_eval.fresh_probability;
  decision.predicted_p99_ms = incumbent_eval.read_p99_ms;
  decision.predicted_feasible = incumbent_eval.feasible;
  cluster_->set_predictor_provenance(
      PredictorBackendName(predictor.backend()), predictor.note());
  {
    Decision::CandidateOutcome incumbent;
    incumbent.action = "incumbent";
    incumbent.quorum = current.quorum;
    incumbent.predicted_fresh = incumbent_eval.fresh_probability;
    incumbent.predicted_p99_ms = incumbent_eval.read_p99_ms;
    incumbent.predicted_feasible = incumbent_eval.feasible;
    decision.candidates.push_back(std::move(incumbent));
  }

  struct Candidate {
    const char* action;
    MixedQuorum quorum;
  };
  const MixedQuorum& q = current.quorum;
  std::vector<Candidate> candidates;
  if (q.mixing()) {
    candidates.push_back(
        {"mix+", {q.n, q.r_lo, q.r_hi, q.w,
                  std::min(1.0, q.mix + kMixStep)}});
    candidates.push_back(
        {"mix-", {q.n, q.r_lo, q.r_hi, q.w,
                  std::max(0.0, q.mix - kMixStep)}});
    if (q.r_lo > 1) {
      candidates.push_back({"r_lo-", {q.n, q.r_lo - 1, q.r_hi, q.w, q.mix}});
    }
    if (q.r_lo + 1 <= q.r_hi) {
      candidates.push_back({"r_lo+", {q.n, q.r_lo + 1, q.r_hi, q.w, q.mix}});
    }
    if (q.r_hi < q.n) {
      candidates.push_back({"r_hi+", {q.n, q.r_lo, q.r_hi + 1, q.w, q.mix}});
    }
    if (q.r_hi - 1 >= q.r_lo) {
      candidates.push_back({"r_hi-", {q.n, q.r_lo, q.r_hi - 1, q.w, q.mix}});
    }
  } else {
    // Fixed quorum at R = r_hi: lattice moves, plus "start mixing a faster
    // R = r_hi - 1 into the stream" as the fractional entry point.
    if (q.r_hi < q.n) {
      candidates.push_back(
          {"r_hi+", {q.n, q.r_hi + 1, q.r_hi + 1, q.w, 0.0}});
    }
    if (q.r_hi > 1) {
      candidates.push_back(
          {"r_hi-", {q.n, q.r_hi - 1, q.r_hi - 1, q.w, 0.0}});
      candidates.push_back(
          {"mix+", {q.n, q.r_hi - 1, q.r_hi, q.w, kMixStep}});
    }
  }
  if (q.w < q.n) {
    candidates.push_back({"w+", {q.n, q.r_lo, q.r_hi, q.w + 1, q.mix}});
  }
  if (q.w > 1) {
    candidates.push_back({"w-", {q.n, q.r_lo, q.r_hi, q.w - 1, q.mix}});
  }

  const char* best_action = nullptr;
  MixedQuorum best_quorum = q;
  MixedQuorumEvaluation best_eval = incumbent_eval;
  size_t best_index = 0;  // into decision.candidates; 0 = incumbent
  uint64_t salt = 1;
  for (const Candidate& candidate : candidates) {
    if (candidate.quorum == q) continue;
    const MixedQuorumEvaluation eval =
        Predict(candidate.quorum, predictor, salt++);
    {
      Decision::CandidateOutcome arm;
      arm.action = candidate.action;
      arm.quorum = candidate.quorum;
      arm.predicted_fresh = eval.fresh_probability;
      arm.predicted_p99_ms = eval.read_p99_ms;
      arm.predicted_feasible = eval.feasible;
      decision.candidates.push_back(std::move(arm));
    }
    bool better;
    if (eval.feasible != best_eval.feasible) {
      better = eval.feasible;
    } else if (eval.feasible) {
      better = eval.read_p99_ms < best_eval.read_p99_ms;
    } else {
      // Both miss the SLA: freshness first (it is the harder clause to buy
      // back), then latency.
      better = eval.fresh_probability > best_eval.fresh_probability ||
               (eval.fresh_probability == best_eval.fresh_probability &&
                eval.read_p99_ms < best_eval.read_p99_ms);
    }
    if (better) {
      best_action = candidate.action;
      best_quorum = candidate.quorum;
      best_eval = eval;
      best_index = decision.candidates.size() - 1;
    }
  }

  // Hysteresis: a measured SLA violation disqualifies the incumbent from
  // its hold advantage; otherwise a feasible incumbent only yields to a
  // clearly better challenger.
  const bool incumbent_ok = incumbent_eval.feasible &&
                            !measured_fresh_violation &&
                            !measured_latency_violation;
  bool switch_now = false;
  if (best_action != nullptr) {
    if (!incumbent_ok && (best_eval.feasible ||
                          best_eval.fresh_probability >
                              incumbent_eval.fresh_probability)) {
      switch_now = true;
    } else if (incumbent_ok && best_eval.feasible &&
               best_eval.read_p99_ms <
                   kSwitchImprovementFactor * incumbent_eval.read_p99_ms) {
      switch_now = true;
    }
  }
  if (switch_now) {
    decision.predicted_fresh = best_eval.fresh_probability;
    decision.predicted_p99_ms = best_eval.read_p99_ms;
    decision.predicted_feasible = best_eval.feasible;
    decision.candidates[best_index].chosen = true;
    KnobState next = current;
    next.quorum = best_quorum;
    actuate_step(next, best_action);
    return;
  }

  ++cluster_->metrics().controller_holds;
  decision.candidates[0].chosen = true;  // hold: the incumbent arm won
  decision.action = "hold";
  finalize(current);
}

uint64_t ConsistencyController::DecisionDigest() const {
  uint64_t hash = 14695981039346656037ULL;
  for (const Decision& d : decisions_) {
    hash = FnvInt(hash, d.id);
    hash = FnvInt(hash, d.epoch);
    hash = FnvDouble(hash, d.time_ms);
    hash = FnvFold(hash, d.action.data(), d.action.size());
    hash = FnvInt(hash, d.quorum.n);
    hash = FnvInt(hash, d.quorum.r_lo);
    hash = FnvInt(hash, d.quorum.r_hi);
    hash = FnvInt(hash, d.quorum.w);
    hash = FnvDouble(hash, d.quorum.mix);
    hash = FnvInt(hash, d.hedge_enabled ? 1 : 0);
    hash = FnvDouble(hash, d.hedge_quantile);
    hash = FnvInt(hash, d.retry_attempts);
    hash = FnvDouble(hash, d.retry_deadline_ms);
    hash = FnvDouble(hash, d.predicted_fresh);
    hash = FnvDouble(hash, d.predicted_p99_ms);
    hash = FnvInt(hash, d.predicted_feasible ? 1 : 0);
    hash = FnvDouble(hash, d.measured_fresh);
    hash = FnvDouble(hash, d.measured_p99_ms);
    hash = FnvInt(hash, d.measured_reads);
  }
  return hash;
}

std::string DecisionsJsonl(
    const std::vector<ConsistencyController::Decision>& decisions) {
  std::ostringstream out;
  for (const ConsistencyController::Decision& d : decisions) {
    out << "{\"type\":\"decision\",\"id\":" << d.id << ",\"epoch\":" << d.epoch
        << ",\"time_ms\":" << obs::JsonNumber(d.time_ms)
        << ",\"action\":" << obs::JsonString(d.action)
        << ",\"r_lo\":" << d.quorum.r_lo << ",\"r_hi\":" << d.quorum.r_hi
        << ",\"mix\":" << obs::JsonNumber(d.quorum.mix)
        << ",\"w\":" << d.quorum.w
        << ",\"hedge_enabled\":" << (d.hedge_enabled ? "true" : "false")
        << ",\"hedge_quantile\":" << obs::JsonNumber(d.hedge_quantile)
        << ",\"retry_attempts\":" << d.retry_attempts
        << ",\"predicted_fresh\":" << obs::JsonNumber(d.predicted_fresh)
        << ",\"predicted_p99_ms\":" << obs::JsonNumber(d.predicted_p99_ms)
        << ",\"predicted_feasible\":"
        << (d.predicted_feasible ? "true" : "false")
        << ",\"measured_fresh\":" << obs::JsonNumber(d.measured_fresh)
        << ",\"measured_p99_ms\":" << obs::JsonNumber(d.measured_p99_ms)
        << ",\"measured_reads\":" << d.measured_reads
        << ",\"outcome_fresh\":" << obs::JsonNumber(d.outcome_fresh)
        << ",\"outcome_p99_ms\":" << obs::JsonNumber(d.outcome_p99_ms)
        << ",\"outcome_reads\":" << d.outcome_reads << ",\"candidates\":[";
    for (size_t i = 0; i < d.candidates.size(); ++i) {
      const ConsistencyController::Decision::CandidateOutcome& c =
          d.candidates[i];
      if (i > 0) out << ",";
      out << "{\"action\":" << obs::JsonString(c.action)
          << ",\"r_lo\":" << c.quorum.r_lo << ",\"r_hi\":" << c.quorum.r_hi
          << ",\"mix\":" << obs::JsonNumber(c.quorum.mix)
          << ",\"w\":" << c.quorum.w
          << ",\"predicted_fresh\":" << obs::JsonNumber(c.predicted_fresh)
          << ",\"predicted_p99_ms\":" << obs::JsonNumber(c.predicted_p99_ms)
          << ",\"predicted_feasible\":"
          << (c.predicted_feasible ? "true" : "false")
          << ",\"chosen\":" << (c.chosen ? "true" : "false") << "}";
    }
    out << "]}\n";
  }
  return out.str();
}

}  // namespace kvs
}  // namespace pbs
