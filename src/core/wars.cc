#include "core/wars.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "dist/sampler.h"
#include "util/small_sort.h"

namespace pbs {
namespace {

/// Returns the k-th smallest (1-indexed) element of `values` without fully
/// sorting; `values` is scratch and may be reordered. Small n (the common
/// quorum sizes) go through branch-free sorting networks.
double KthSmallest(std::vector<double>& values, int k) {
  assert(k >= 1 && static_cast<size_t>(k) <= values.size());
  return SmallKthSmallest(values.data(), static_cast<int>(values.size()), k);
}

class IidReplicaLatencyModel final : public ReplicaLatencyModel {
 public:
  IidReplicaLatencyModel(WarsDistributions dists, int n)
      : dists_(std::move(dists)), plan_(dists_), n_(n) {
    assert(n >= 1);
  }

  int num_replicas() const override { return n_; }

  void SampleTrialSoA(Rng& rng, double* legs) const override {
    plan_.SampleLegs(rng, n_, legs);
  }

  void SampleTrialsSoA(Rng& rng, int trials, double* legs) const override {
    // IID legs across replicas AND trials: a block of `trials` trials is
    // distributionally identical to one trial with n*trials replicas, so the
    // whole block is a single fused plan invocation at full batch width. Leg
    // L's n*trials values land contiguously at offset L*n*trials, which is
    // exactly the column-major block layout — the (replica, trial)
    // interpretation of that region is free because the values are IID.
    plan_.SampleLegs(rng, n_ * trials, legs);
  }

  const WarsDistributions* IidLegs() const override { return &dists_; }

  std::string Describe() const override { return dists_.name + " (IID)"; }

 private:
  WarsDistributions dists_;
  SamplerPlan plan_;
  int n_;
};

class WanReplicaLatencyModel final : public ReplicaLatencyModel {
 public:
  WanReplicaLatencyModel(WarsDistributions base, int n, double one_way_ms)
      : base_(std::move(base)), plan_(base_), n_(n), one_way_ms_(one_way_ms) {
    assert(n >= 1);
    assert(one_way_ms >= 0.0);
  }

  int num_replicas() const override { return n_; }

  void SampleTrialSoA(Rng& rng, double* legs) const override {
    // The write and read coordinators land in independently random
    // datacenters (drawn before the legs); each datacenter hosts exactly one
    // replica. Remote legs pay the one-way WAN delay.
    const int n = n_;
    const int write_local = static_cast<int>(rng.NextBounded(n));
    const int read_local = static_cast<int>(rng.NextBounded(n));
    plan_.SampleLegs(rng, n, legs);
    const double delay = one_way_ms_;
    for (int i = 0; i < n; ++i) {
      const double remote_w = static_cast<double>(i != write_local) * delay;
      legs[i] += remote_w;
      legs[n + i] += remote_w;
    }
    for (int i = 0; i < n; ++i) {
      const double remote_r = static_cast<double>(i != read_local) * delay;
      legs[2 * n + i] += remote_r;
      legs[3 * n + i] += remote_r;
    }
  }

  std::string Describe() const override {
    return "WAN(+" + std::to_string(one_way_ms_) + "ms remote legs over " +
           base_.name + ")";
  }

 private:
  WarsDistributions base_;
  SamplerPlan plan_;
  int n_;
  double one_way_ms_;
};

class HeterogeneousReplicaLatencyModel final : public ReplicaLatencyModel {
 public:
  explicit HeterogeneousReplicaLatencyModel(
      std::vector<WarsDistributions> dists)
      : dists_(std::move(dists)) {
    assert(!dists_.empty());
    plans_.reserve(dists_.size());
    for (const auto& d : dists_) plans_.emplace_back(d);
  }

  int num_replicas() const override {
    return static_cast<int>(dists_.size());
  }

  void SampleTrialSoA(Rng& rng, double* legs) const override {
    // Replicas draw from distinct distributions, so per-replica batches are
    // only 4 samples; the win here is devirtualization, not batching. Draws
    // stay replica-major within this model (replica i consumes draws before
    // replica i+1), legs scatter into the leg-major block.
    const int n = static_cast<int>(dists_.size());
    double tmp[4];
    for (int i = 0; i < n; ++i) {
      plans_[i].SampleLegs(rng, 1, tmp);
      legs[i] = tmp[0];
      legs[n + i] = tmp[1];
      legs[2 * n + i] = tmp[2];
      legs[3 * n + i] = tmp[3];
    }
  }

  std::string Describe() const override {
    std::string out = "Heterogeneous[";
    for (size_t i = 0; i < dists_.size(); ++i) {
      if (i) out += ", ";
      out += dists_[i].name;
    }
    return out + "]";
  }

 private:
  std::vector<WarsDistributions> dists_;
  std::vector<SamplerPlan> plans_;
};

class LocalCoordinatorLatencyModel final : public ReplicaLatencyModel {
 public:
  LocalCoordinatorLatencyModel(WarsDistributions base, int n,
                               bool same_coordinator, double local_delay_ms)
      : base_(std::move(base)), plan_(base_), n_(n),
        same_coordinator_(same_coordinator), local_delay_ms_(local_delay_ms) {
    assert(n >= 1);
    assert(local_delay_ms >= 0.0);
  }

  int num_replicas() const override { return n_; }

  void SampleTrialSoA(Rng& rng, double* legs) const override {
    const int n = n_;
    const int write_local = static_cast<int>(rng.NextBounded(n));
    const int read_local =
        same_coordinator_ ? write_local
                          : static_cast<int>(rng.NextBounded(n));
    // Sample every replica's legs, then overwrite the coordinator-local
    // ones. The local replica's draws are discarded, which keeps the trial's
    // draw count fixed (n legs per run regardless of which replica is
    // local) — required for deterministic parallel sub-streams.
    plan_.SampleLegs(rng, n, legs);
    legs[write_local] = local_delay_ms_;
    legs[n + write_local] = local_delay_ms_;
    legs[2 * n + read_local] = local_delay_ms_;
    legs[3 * n + read_local] = local_delay_ms_;
  }

  std::string Describe() const override {
    return std::string("LocalCoordinator(") +
           (same_coordinator_ ? "same" : "independent") + " over " +
           base_.name + ")";
  }

 private:
  WarsDistributions base_;
  SamplerPlan plan_;
  int n_;
  bool same_coordinator_;
  double local_delay_ms_;
};

/// Fully specialized trial kernel for n <= 8: with N a compile-time constant
/// the derived-column loops unroll and the sorting networks inline as
/// branch-free cmov chains — the runtime-n library entry points cost several
/// times the network itself in dispatch overhead at one call per trial.
/// Draw order (kQuorumOnly subset draws) is identical to the generic path.
template <int N>
void ComputeTrialFixedN(const QuorumConfig& config, ReadFanout read_fanout,
                        Rng& rng, const double* w, const double* a,
                        const double* r, const double* s, WarsTrial* trial,
                        bool want_propagation) {
  const int rr = config.r;
  double wa[N], rs[N], gap[N];
  for (int i = 0; i < N; ++i) wa[i] = w[i] + a[i];
  for (int i = 0; i < N; ++i) rs[i] = r[i] + s[i];
  for (int i = 0; i < N; ++i) gap[i] = w[i] - r[i];

  SmallSortFixed<N>(wa);
  const double wt = wa[config.w - 1];
  trial->write_latency = wt;

  double threshold;
  if (read_fanout == ReadFanout::kAllN) {
    SmallSortPairsFixed<N>(rs, gap);
    trial->read_latency = rs[rr - 1];
    double g = gap[0];
    for (int k = 1; k < rr; ++k) g = std::min(g, gap[k]);
    threshold = g - wt;
  } else {
    int order[N];
    for (int i = 0; i < N; ++i) order[i] = i;
    for (int i = 0; i < rr; ++i) {
      const int j = i + static_cast<int>(
                            rng.NextBounded(static_cast<uint64_t>(N - i)));
      std::swap(order[i], order[j]);
    }
    double slowest = 0.0;
    double g = std::numeric_limits<double>::infinity();
    for (int k = 0; k < rr; ++k) {
      const int j = order[k];
      slowest = std::max(slowest, rs[j]);
      g = std::min(g, gap[j]);
    }
    trial->read_latency = slowest;
    threshold = g - wt;
  }
  trial->staleness_threshold = std::max(0.0, threshold);

  if (want_propagation) {
    trial->propagation_times.resize(N);
    double* prop = trial->propagation_times.data();
    for (int i = 0; i < N; ++i) prop[i] = std::max(0.0, w[i] - wt);
    SmallSortFixed<N>(prop);
  } else {
    trial->propagation_times.clear();
  }
}

/// Trial-parallel column kernel: evaluates a whole block of `b` trials at
/// once on the column-major legs layout. The block flows through the same
/// derived-column arithmetic and sorting networks as ComputeTrialFixedN, but
/// every comparator is an elementwise min/max pass over the block's column,
/// so the autovectorizer sorts 2-8 trials per instruction instead of one.
/// Identical arithmetic and tie handling to the per-trial kernel, so results
/// are bitwise identical. kAllN only (kQuorumOnly needs per-trial draws).
template <int N>
void ComputeTrialColumnsFixedN(const QuorumConfig& config, int b,
                               const double* legs, double* wa, double* rs,
                               double* gap, double* prop, double* wl,
                               double* rl, double* st,
                               double* const* prop_cols, int base) {
  const int rr = config.r;
  const double* w = legs;
  const double* a = legs + static_cast<size_t>(N) * b;
  const double* r = legs + static_cast<size_t>(2 * N) * b;
  const double* s = legs + static_cast<size_t>(3 * N) * b;
  for (int i = 0; i < N; ++i) {
    const double* wi = w + static_cast<size_t>(i) * b;
    const double* ai = a + static_cast<size_t>(i) * b;
    const double* ri = r + static_cast<size_t>(i) * b;
    const double* si = s + static_cast<size_t>(i) * b;
    double* wai = wa + static_cast<size_t>(i) * b;
    double* rsi = rs + static_cast<size_t>(i) * b;
    double* gapi = gap + static_cast<size_t>(i) * b;
    for (int t = 0; t < b; ++t) wai[t] = wi[t] + ai[t];
    for (int t = 0; t < b; ++t) rsi[t] = ri[t] + si[t];
    for (int t = 0; t < b; ++t) gapi[t] = wi[t] - ri[t];
  }

  ColumnSortFixed<N>(wa, b, b);
  const double* wtr = wa + static_cast<size_t>(config.w - 1) * b;
  for (int t = 0; t < b; ++t) wl[t] = wtr[t];

  ColumnSortPairsFixed<N>(rs, gap, b, b);
  const double* rlr = rs + static_cast<size_t>(rr - 1) * b;
  for (int t = 0; t < b; ++t) rl[t] = rlr[t];
  for (int t = 0; t < b; ++t) st[t] = gap[t];
  for (int k = 1; k < rr; ++k) {
    const double* gk = gap + static_cast<size_t>(k) * b;
    for (int t = 0; t < b; ++t) st[t] = std::min(st[t], gk[t]);
  }
  for (int t = 0; t < b; ++t) st[t] = std::max(0.0, st[t] - wl[t]);

  if (prop_cols != nullptr) {
    for (int i = 0; i < N; ++i) {
      const double* wi = w + static_cast<size_t>(i) * b;
      double* pi = prop + static_cast<size_t>(i) * b;
      for (int t = 0; t < b; ++t) pi[t] = std::max(0.0, wi[t] - wl[t]);
    }
    ColumnSortFixed<N>(prop, b, b);
    for (int c = 0; c < N; ++c) {
      const double* pc = prop + static_cast<size_t>(c) * b;
      double* outc = prop_cols[c] + base;
      for (int t = 0; t < b; ++t) outc[t] = pc[t];
    }
  }
}

}  // namespace

void ReplicaLatencyModel::SampleTrialsSoA(Rng& rng, int trials,
                                          double* legs) const {
  // Generic path: per-trial draw order (identical to calling SampleTrialSoA
  // `trials` times), scattered into the column-major block layout. Models
  // whose legs are IID across trials override this with one fused draw.
  const int n = num_replicas();
  std::vector<double> tmp(static_cast<size_t>(4 * n));
  for (int t = 0; t < trials; ++t) {
    SampleTrialSoA(rng, tmp.data());
    for (int q = 0; q < 4 * n; ++q) {
      legs[static_cast<size_t>(q) * trials + t] = tmp[q];
    }
  }
}

ReplicaLatencyModelPtr MakeLocalCoordinatorModel(const WarsDistributions& base,
                                                 int n, bool same_coordinator,
                                                 double local_delay_ms) {
  return std::make_shared<LocalCoordinatorLatencyModel>(
      base, n, same_coordinator, local_delay_ms);
}

ReplicaLatencyModelPtr MakeIidModel(const WarsDistributions& dists, int n) {
  return std::make_shared<IidReplicaLatencyModel>(dists, n);
}

ReplicaLatencyModelPtr MakeWanModel(const WarsDistributions& base, int n,
                                    double one_way_ms) {
  return std::make_shared<WanReplicaLatencyModel>(base, n, one_way_ms);
}

ReplicaLatencyModelPtr MakeHeterogeneousModel(
    std::vector<WarsDistributions> dists) {
  return std::make_shared<HeterogeneousReplicaLatencyModel>(std::move(dists));
}

WarsSimulator::WarsSimulator(const QuorumConfig& config,
                             ReplicaLatencyModelPtr model, uint64_t seed,
                             ReadFanout read_fanout)
    : WarsSimulator(config, std::move(model), Rng(seed), read_fanout) {}

WarsSimulator::WarsSimulator(const QuorumConfig& config,
                             ReplicaLatencyModelPtr model, Rng rng,
                             ReadFanout read_fanout)
    : config_(config), model_(std::move(model)), rng_(rng),
      read_fanout_(read_fanout) {
  assert(config_.IsValid());
  assert(model_ != nullptr);
  assert(model_->num_replicas() == config_.n);
  const size_t n = static_cast<size_t>(config_.n);
  legs_.resize(4 * n);
  write_arrival_.resize(n);
  read_round_trip_.resize(n);
  freshness_gap_.resize(n);
  read_order_.resize(n);
}

WarsTrial WarsSimulator::RunTrial(bool want_propagation) {
  WarsTrial trial;
  RunTrialInto(&trial, want_propagation);
  return trial;
}

void WarsSimulator::RunTrialInto(WarsTrial* trial, bool want_propagation) {
  const int n = config_.n;
  model_->SampleTrialSoA(rng_, legs_.data());
  const double* w = legs_.data();
  ComputeTrialFromLegs(w, w + n, w + 2 * n, w + 3 * n, trial,
                       want_propagation);
}

int WarsSimulator::TrialBlock(int n) {
  return std::max(1, std::min(256, 4096 / (4 * n)));
}

void WarsSimulator::RunTrialBlock(int count, double* write_latency,
                                  double* read_latency, double* staleness,
                                  double* const* prop_cols) {
  const int n = config_.n;
  const int block = TrialBlock(n);
  legs_block_.resize(static_cast<size_t>(4 * n) * block);
  const bool column_path = read_fanout_ == ReadFanout::kAllN && n <= 8;
  if (column_path) cols_.resize(static_cast<size_t>(4 * n) * block);
  WarsTrial trial;  // reused across trials; propagation capacity persists
  for (int base = 0; base < count; base += block) {
    const int b = std::min(block, count - base);
    model_->SampleTrialsSoA(rng_, b, legs_block_.data());
    const double* legs = legs_block_.data();
    if (column_path) {
      // Scratch columns use the same stride b as the legs block; a partial
      // final block just uses a prefix of the allocation.
      double* wa = cols_.data();
      double* rs = wa + static_cast<size_t>(n) * b;
      double* gap = rs + static_cast<size_t>(n) * b;
      double* prop = gap + static_cast<size_t>(n) * b;
      switch (n) {
#define PBS_TRIAL_COLS_CASE(N)                                             \
  case N:                                                                  \
    ComputeTrialColumnsFixedN<N>(config_, b, legs, wa, rs, gap, prop,      \
                                 write_latency + base, read_latency + base, \
                                 staleness + base, prop_cols, base);       \
    break;
        PBS_TRIAL_COLS_CASE(1)
        PBS_TRIAL_COLS_CASE(2)
        PBS_TRIAL_COLS_CASE(3)
        PBS_TRIAL_COLS_CASE(4)
        PBS_TRIAL_COLS_CASE(5)
        PBS_TRIAL_COLS_CASE(6)
        PBS_TRIAL_COLS_CASE(7)
        PBS_TRIAL_COLS_CASE(8)
#undef PBS_TRIAL_COLS_CASE
        default:
          assert(false);
      }
      continue;
    }
    // Per-trial fallback (kQuorumOnly subset draws, or n > 8): gather each
    // trial's legs out of the columns into the 4n leg-major scratch.
    for (int t = 0; t < b; ++t) {
      double* g = legs_.data();
      for (int q = 0; q < 4 * n; ++q) {
        g[q] = legs[static_cast<size_t>(q) * b + t];
      }
      ComputeTrialFromLegs(g, g + n, g + 2 * n, g + 3 * n, &trial,
                           prop_cols != nullptr);
      const int row = base + t;
      write_latency[row] = trial.write_latency;
      read_latency[row] = trial.read_latency;
      staleness[row] = trial.staleness_threshold;
      if (prop_cols != nullptr) {
        for (int c = 0; c < n; ++c) {
          prop_cols[c][row] = trial.propagation_times[c];
        }
      }
    }
  }
}

void WarsSimulator::ComputeTrialFromLegs(const double* w, const double* a,
                                         const double* r, const double* s,
                                         WarsTrial* trial,
                                         bool want_propagation) {
  // Common quorum sizes run the compile-time-specialized kernel (inlined
  // sorting networks, unrolled column loops); larger n falls through to the
  // generic path below.
  switch (config_.n) {
#define PBS_TRIAL_CASE(N)                                                  \
  case N:                                                                  \
    ComputeTrialFixedN<N>(config_, read_fanout_, rng_, w, a, r, s, trial,  \
                          want_propagation);                               \
    return;
    PBS_TRIAL_CASE(1)
    PBS_TRIAL_CASE(2)
    PBS_TRIAL_CASE(3)
    PBS_TRIAL_CASE(4)
    PBS_TRIAL_CASE(5)
    PBS_TRIAL_CASE(6)
    PBS_TRIAL_CASE(7)
    PBS_TRIAL_CASE(8)
#undef PBS_TRIAL_CASE
    default:
      break;
  }
  const int n = config_.n;
  const int rr = config_.r;

  // Derived per-trial columns; each loop vectorizes.
  double* wa = write_arrival_.data();
  double* rs = read_round_trip_.data();
  double* gap = freshness_gap_.data();
  for (int i = 0; i < n; ++i) wa[i] = w[i] + a[i];
  for (int i = 0; i < n; ++i) rs[i] = r[i] + s[i];
  for (int i = 0; i < n; ++i) gap[i] = w[i] - r[i];

  // Commit time wt: the coordinator needs W acknowledgments; ack i arrives
  // at w[i] + a[i].
  const double wt = KthSmallest(write_arrival_, config_.w);
  trial->write_latency = wt;

  // Read side. A responder j is fresh for a read issued t after commit iff
  // the read request reaches it no earlier than the write did:
  //   wt + t + r[j] >= w[j]  <=>  t >= (w[j] - r[j]) - wt.
  // The read is consistent iff ANY of the first R responders is fresh, so
  // the trial's threshold is the minimum gap among them, minus wt.
  double threshold;
  if (read_fanout_ == ReadFanout::kAllN) {
    // Dynamo: contact all N, return after the R fastest round trips.
    std::iota(read_order_.begin(), read_order_.end(), 0);
    std::partial_sort(read_order_.begin(), read_order_.begin() + rr,
                      read_order_.end(),
                      [&](int x, int y) { return rs[x] < rs[y]; });
    trial->read_latency = rs[read_order_[rr - 1]];
    double g = std::numeric_limits<double>::infinity();
    for (int k = 0; k < rr; ++k) g = std::min(g, gap[read_order_[k]]);
    threshold = g - wt;
  } else {
    // Voldemort: contact a uniformly random R-subset, wait for all of it.
    std::iota(read_order_.begin(), read_order_.end(), 0);
    for (int i = 0; i < rr; ++i) {
      const int j = i + static_cast<int>(
                            rng_.NextBounded(static_cast<uint64_t>(n - i)));
      std::swap(read_order_[i], read_order_[j]);
    }
    double slowest = 0.0;
    double g = std::numeric_limits<double>::infinity();
    for (int k = 0; k < rr; ++k) {
      const int j = read_order_[k];
      slowest = std::max(slowest, rs[j]);
      g = std::min(g, gap[j]);
    }
    trial->read_latency = slowest;
    threshold = g - wt;
  }
  trial->staleness_threshold = std::max(0.0, threshold);

  if (want_propagation) {
    // Time after commit until the c-th replica holds the version.
    trial->propagation_times.resize(n);
    double* prop = trial->propagation_times.data();
    for (int i = 0; i < n; ++i) prop[i] = std::max(0.0, w[i] - wt);
    SmallSort(prop, n);
  } else {
    trial->propagation_times.clear();
  }
}

WarsTrialSet RunWarsTrials(const QuorumConfig& config,
                           const ReplicaLatencyModelPtr& model, int trials,
                           uint64_t seed, bool want_propagation,
                           ReadFanout read_fanout,
                           const PbsExecutionOptions& exec) {
  assert(trials > 0);
  WarsTrialSet set;
  set.write_latencies.resize(trials);
  set.read_latencies.resize(trials);
  set.staleness_thresholds.resize(trials);
  if (want_propagation) {
    set.propagation.assign(config.n, std::vector<double>(trials));
  }
  // Chunk c samples the c-th jump sub-stream and fills rows [begin, end) of
  // the pre-sized columns; no two chunks touch the same row, and neither the
  // stream layout nor the row layout depends on the thread count.
  const std::vector<Rng> streams =
      MakeJumpStreams(Rng(seed), NumChunks(trials, exec));
  ParallelFor(trials, exec,
              [&](int64_t chunk, int64_t begin, int64_t end) {
                WarsSimulator sim(config, model, streams[chunk], read_fanout);
                std::vector<double*> prop_cols;
                if (want_propagation) {
                  prop_cols.reserve(config.n);
                  for (int c = 0; c < config.n; ++c) {
                    prop_cols.push_back(set.propagation[c].data() + begin);
                  }
                }
                sim.RunTrialBlock(static_cast<int>(end - begin),
                                  set.write_latencies.data() + begin,
                                  set.read_latencies.data() + begin,
                                  set.staleness_thresholds.data() + begin,
                                  want_propagation ? prop_cols.data()
                                                   : nullptr);
              });
  return set;
}

WarsTrialSet RunWarsTrialsObserved(const QuorumConfig& config,
                                   const ReplicaLatencyModelPtr& model,
                                   int trials, uint64_t seed,
                                   bool want_propagation,
                                   ReadFanout read_fanout,
                                   const PbsExecutionOptions& exec,
                                   obs::Registry* registry) {
  if (registry == nullptr) {
    // Null observer: identical to the plain entry point, no extra work in
    // or after the trial loop.
    return RunWarsTrials(config, model, trials, seed, want_propagation,
                         read_fanout, exec);
  }
  WarsTrialSet set = RunWarsTrials(config, model, trials, seed,
                                   want_propagation, read_fanout, exec);
  // Instrument from the finished columns, chunk by chunk in chunk order.
  // The trial outputs are untouched (recording consumes zero RNG draws) and
  // the merge order is a function of (trials, chunk_size) only, so the
  // merged registry is bitwise identical at any thread count.
  const int64_t num_chunks = NumChunks(trials, exec);
  std::vector<obs::Registry> chunk_registries(num_chunks);
  ParallelFor(trials, exec,
              [&](int64_t chunk, int64_t begin, int64_t end) {
                obs::Registry& local = chunk_registries[chunk];
                obs::LogHistogram& w = local.histogram("wars/write_latency_ms");
                obs::LogHistogram& r = local.histogram("wars/read_latency_ms");
                obs::LogHistogram& t =
                    local.histogram("wars/staleness_threshold_ms");
                for (int64_t i = begin; i < end; ++i) {
                  w.Record(set.write_latencies[i]);
                  r.Record(set.read_latencies[i]);
                  t.Record(set.staleness_thresholds[i]);
                }
                local.counter("wars/trials").Add(end - begin);
              });
  for (const obs::Registry& local : chunk_registries) registry->Merge(local);
  return set;
}

}  // namespace pbs
