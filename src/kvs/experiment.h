#ifndef PBS_KVS_EXPERIMENT_H_
#define PBS_KVS_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "kvs/cluster.h"
#include "kvs/controller.h"
#include "kvs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace pbs {
namespace kvs {

/// The Section 5.2 measurement harness: "we inserted increasing versions of
/// a key while concurrently issuing read requests". One writer client
/// inserts version i at a fixed spacing; each commit triggers probe reads at
/// the configured offsets t after commit, through a *different* coordinator
/// (as in WARS, where read and write coordinators are independent). A probe
/// read is consistent if it returns the committed (or any newer) version.
struct StalenessExperimentOptions {
  /// Cluster configuration (quorum, WARS legs, read repair, anti-entropy,
  /// failures are installed by the caller before running if desired).
  KvsConfig cluster;

  /// Number of versions written (the paper used 50,000 writes per
  /// configuration).
  int writes = 10000;

  /// Time between consecutive write starts; must comfortably exceed typical
  /// write latency so writes do not overlap (overlapping in-flight writes
  /// only make data fresher than predicted — Section 4.2).
  double write_spacing_ms = 250.0;

  /// Probe offsets t (ms after commit) at which reads are issued.
  std::vector<double> read_offsets_ms = {0.0, 1.0, 2.0, 5.0, 10.0,
                                         25.0, 50.0, 100.0};

  /// Attach a LegProfiler for the run so the result registry carries the
  /// measured per-leg delay histograms ("legs/w_ms" ... "legs/s_ms").
  bool profile_legs = false;

  uint64_t seed = 7;
};

struct StalenessExperimentResult {
  /// Empirical t-visibility: P(consistent | t) per probed offset.
  std::vector<ConsistencyByOffset::Point> t_visibility;

  /// Client-observed operation latencies.
  std::vector<double> write_latencies;
  std::vector<double> read_latencies;

  /// Version staleness across all probe reads (0 = fresh).
  VersionStalenessHistogram version_staleness;

  /// Detector counts (Section 4.3), populated when run with a detector.
  int64_t detector_stale = 0;
  int64_t detector_false_positives = 0;
  int64_t detector_consistent = 0;

  /// Snapshot of cluster counters at the end of the run.
  ClusterMetrics final_metrics;

  /// Total messages the network delivered (request+response legs of every
  /// operation, repairs, gossip, handoffs, heartbeats).
  int64_t network_messages = 0;

  /// Messages lost (partitions, global drops, fault-profile loss) and extra
  /// copies injected by duplicating fault profiles.
  int64_t network_messages_dropped = 0;
  int64_t network_messages_duplicated = 0;

  /// Every named instrument the run produced (cluster counters, latency
  /// histograms, per-leg profiles when attached) — feed to MetricsJsonl().
  obs::Registry registry;

  /// Retained trace events when options.cluster.obs.trace_enabled — feed to
  /// ChromeTraceJson() / StalenessAuditJsonl(). Empty when tracing is off.
  std::vector<obs::TraceEvent> trace;

  /// Closed-loop controller outputs, populated when
  /// options.cluster.controller.enabled: the decision stream, the
  /// audit-joinable configuration history (pass to the 4-argument
  /// WriteStalenessAudit), and the FNV decision digest.
  std::vector<ConsistencyController::Decision> controller_decisions;
  std::vector<obs::AdaptationRecord> controller_history;
  uint64_t controller_digest = 0;

  /// Streaming telemetry (DESIGN.md §13), populated when
  /// options.cluster.obs.telemetry_window_ms > 0: the windowed registry
  /// ring, the monitor's scored samples and raised alerts (monitor_enabled
  /// only), and the composed JSONL artifact — time-series windows, monitor
  /// samples/alerts and controller decisions as typed lines, ready for
  /// `pbs report` / obs::RenderDashboardHtml. Empty when telemetry is off.
  obs::TimeSeries timeseries;
  std::vector<obs::WindowSample> monitor_samples;
  std::vector<obs::Alert> monitor_alerts;
  std::string telemetry_jsonl;

  /// Snapshot provenance for the metrics artifact: the predictor of record
  /// (controller epoch predictor, else the monitor fit), its note, and the
  /// controller decision active at the end of the run. Pass to the header
  /// overload of obs::WriteMetricsJsonl so `pbs simulate --metrics-out`
  /// artifacts carry their own provenance line.
  obs::MetricsSnapshotHeader metrics_header;
};

/// Where a staleness run stops. Anti-entropy reschedules forever, so every
/// run is bounded: one write spacing past the last write start, plus the
/// largest probe offset, plus three request timeouts for the last probes to
/// finish. Fault schedules are cut against the same horizon.
double DrainHorizonMs(int writes, double write_spacing_ms,
                      std::span<const double> read_offsets_ms,
                      double request_timeout_ms);

/// Builds a cluster per `options.cluster` (forcing two dedicated
/// coordinators: one for writes, one for reads), runs the harness and
/// returns the measurements. Deterministic given options.seed.
StalenessExperimentResult RunStalenessExperiment(
    const StalenessExperimentOptions& options);

/// As above, but installs a fault schedule (fail-stop crashes, slow nodes,
/// bursty lossy links, flapping, one-way partitions) before running
/// (Section 6 "Failure modes" and the chaos experiments).
class FaultSchedule;
StalenessExperimentResult RunStalenessExperimentWithFaults(
    const StalenessExperimentOptions& options, const FaultSchedule& faults);

/// Scalar digest of one (or a pool of) chaos experiment run(s). Everything
/// is either an exact integer counter or a quantile of a deterministically
/// sorted latency pool, so two runs of the same seeded workload compare
/// bitwise equal — the contract parallel_determinism_test pins across
/// thread counts.
struct ChaosSummary {
  int64_t reads_started = 0;
  int64_t reads_failed = 0;
  int64_t writes_started = 0;
  int64_t writes_failed = 0;
  int64_t hedged_reads_sent = 0;
  int64_t hedged_reads_won = 0;
  int64_t duplicate_responses_suppressed = 0;
  int64_t duplicate_acks_suppressed = 0;
  int64_t client_read_retries = 0;
  int64_t client_write_retries = 0;
  int64_t client_deadline_misses = 0;
  int64_t consistency_downgrades = 0;
  int64_t monotonic_read_violations = 0;
  int64_t messages_dropped = 0;
  int64_t messages_duplicated = 0;
  int64_t fault_activations = 0;

  // Client-visible read/write latency quantiles (ms).
  double read_p50 = 0.0;
  double read_p99 = 0.0;
  double read_p999 = 0.0;
  double read_max = 0.0;
  double write_p50 = 0.0;
  double write_p99 = 0.0;
  double write_p999 = 0.0;

  // Empirical t-visibility, aligned with the probed read offsets: exact
  // counts so pooled summaries stay integer-exact.
  std::vector<double> probe_offsets_ms;
  std::vector<int64_t> probe_trials;
  std::vector<int64_t> probe_consistent;

  double ProbConsistentAtIndex(size_t i) const {
    return probe_trials[i] == 0 ? 1.0
                                : static_cast<double>(probe_consistent[i]) /
                                      static_cast<double>(probe_trials[i]);
  }

  friend bool operator==(const ChaosSummary&, const ChaosSummary&) = default;
};

/// A seeded campaign: `trials` independent runs of the staleness harness,
/// each under the fault schedule `faults` builds for it. Trial t takes two
/// draws from its chunk's Jump()-partitioned stream (ParallelTrials in
/// util/parallel.h): the workload seed, then the fault seed, whether or not
/// a factory is installed. The campaign is therefore bitwise identical at
/// any thread count, and adding a fault factory never moves the workload
/// stream. A chaos campaign passes a FaultSchedule::RandomGrayFailures
/// factory. A controller campaign enables experiment.cluster.controller;
/// the same campaign with it disabled is the paired static baseline.
struct CampaignOptions {
  StalenessExperimentOptions experiment;  // per-trial seed is overridden
  int trials = 4;

  /// Builds the trial's fault schedule from the run horizon
  /// (DrainHorizonMs) and the trial's fault seed; null runs fault-free.
  /// Must be a pure function of its arguments (it is called from worker
  /// threads).
  std::function<FaultSchedule(double horizon_ms, uint64_t seed)> faults;

  uint64_t seed = 202;
};

/// Per-trial digest of a campaign run: the chaos scalars plus the
/// controller's decision stream digest, decision/step/rollback counts, the
/// final knob state and the measured freshness counters (controller fields
/// stay zero when the controller is off). Fully ==-comparable for the
/// thread-count determinism pins.
struct CampaignTrialSummary {
  ChaosSummary chaos;
  uint64_t decision_digest = 0;
  int64_t decisions = 0;
  int64_t steps = 0;
  int64_t rollbacks = 0;
  int final_r_lo = 0;
  int final_r_hi = 0;
  int final_w = 0;
  double final_mix = 0.0;
  bool final_hedge = false;
  double final_hedge_quantile = 0.0;
  int final_retry_attempts = 1;
  int64_t reads_fresh_measured = 0;
  int64_t reads_stale_measured = 0;

  /// Streaming-telemetry pins (0 when the trial ran telemetry-off): FNV-1a
  /// over the trial's composed telemetry JSONL, plus the monitor's
  /// window/alert counts.
  uint64_t telemetry_digest = 0;
  int64_t monitor_windows = 0;
  int64_t monitor_alerts = 0;

  friend bool operator==(const CampaignTrialSummary&,
                         const CampaignTrialSummary&) = default;
};

struct CampaignResult {
  std::vector<CampaignTrialSummary> trials;  // trial order
  /// Everything pooled: counters added, latency quantiles recomputed over
  /// the concatenated (trial-ordered, then sorted) latency pools.
  ChaosSummary pooled;
  /// FNV-1a over the per-trial decision digests in trial order — one
  /// number that pins the whole campaign's decision history bitwise.
  uint64_t pooled_digest = 0;
  /// FNV-1a over the per-trial telemetry digests in trial order (offset
  /// basis when every trial ran telemetry-off) — pins windowed registries,
  /// monitor streams and decision exports across thread counts.
  uint64_t pooled_telemetry_digest = 0;
  /// The campaign's merged instrument registry (per-trial registries merged
  /// in trial order), serialized as JSON lines. A string rather than a live
  /// Registry so the defaulted operator== makes thread-count determinism of
  /// the merge directly assertable (and the artifact directly uploadable).
  std::string metrics_jsonl;

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

CampaignResult RunCampaign(const CampaignOptions& options,
                           const PbsExecutionOptions& exec);

}  // namespace kvs
}  // namespace pbs

#endif  // PBS_KVS_EXPERIMENT_H_
