#ifndef PBS_PBS_CONFIG_H_
#define PBS_PBS_CONFIG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.h"
#include "core/quorum_config.h"
#include "core/wars.h"
#include "dist/production.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "kvs/options.h"
#include "obs/options.h"
#include "util/parallel.h"
#include "util/status.h"

namespace pbs {

/// Public name for the parallel execution policy (threads / chunk_size);
/// see util/parallel.h for the (seed, chunk_size) determinism contract.
using ExecutionOptions = PbsExecutionOptions;

/// Quorum shape plus the read fan-out policy it runs under.
struct QuorumOptions {
  int n = 3;
  int r = 1;
  int w = 1;

  /// Dynamo (kAllN: N requests, first R responses) vs Voldemort
  /// (kQuorumOnly: R requests to a random R-subset, wait for all).
  ReadFanout fanout = ReadFanout::kAllN;

  QuorumConfig ToQuorumConfig() const { return QuorumConfig{n, r, w}; }
  Status Validate() const;
};

/// The Section 5.2 write-then-probe workload knobs.
struct WorkloadOptions {
  /// Versions written (the paper used 50,000 per configuration).
  int writes = 5000;

  /// Time between consecutive write starts; must comfortably exceed typical
  /// write latency so writes do not overlap.
  double write_spacing_ms = 250.0;

  /// Probe offsets t (ms after commit) at which reads are issued.
  std::vector<double> read_offsets_ms = {0.0,  1.0,  2.0,  5.0,
                                         10.0, 25.0, 50.0, 100.0};

  Status Validate() const;
};

/// Gray-failure injection, specified as ';'-separated text specs:
///   slow:node=2,factor=10[,add=0]      outbound delays scaled/shifted
///   lossy:src=0,dst=4,loss=0.8[,g2b=0.02,b2g=0.2]  Gilbert-Elliott bursts
///   dup:src=0,dst=4[,p=1]              duplicate delivery on a link
///   flap:node=2,up=300,down=200        crash/recover cycling
///   oneway:src=0,dst=4                 one-way partition (src->dst)
///   gray:seed=7[,interarrival=4000,duration=1500]  seeded random mix
/// Every spec but gray accepts start= / end= (ms; defaults: the whole run);
/// gray draws its faults over the whole run. A key the kind does not read,
/// a value that is not a finite number, a node id that is not a
/// non-negative integer, or a fault no kind can run (end <= start, a slow
/// factor below 1 with no add, a flap or gray period <= 0, fewer than 2
/// gray replicas) is an InvalidArgument.
struct FaultOptions {
  std::string specs;

  bool any() const { return !specs.empty(); }

  /// Dry-run check of every spec. The run's end is unknown here, so a
  /// defaulted end= is checked against start= only by Build.
  Status Validate() const;

  /// Builds the fault schedule for a run draining at `horizon_ms`.
  /// `default_gray_replicas` seeds the gray: spec's replicas= fallback.
  StatusOr<kvs::FaultSchedule> Build(double horizon_ms,
                                     int default_gray_replicas = 3) const;
};

/// Elastic-cluster shape: how many storage nodes sit on the consistent-hash
/// ring, how many virtual tokens each owns, and how rebalances behave.
struct ClusterOptions {
  /// Storage nodes on the ring. 0 = exactly N (the minimal single-shard
  /// deployment most experiments use); larger values shard the key space.
  int num_nodes = 0;

  /// Virtual tokens per node (placement smoothness; balance error shrinks
  /// roughly as 1/sqrt(vnodes)).
  int vnodes = 16;

  /// Migration pacing / retry / decommission policy for membership changes.
  RebalanceOptions rebalance;

  Status Validate() const {
    if (num_nodes < 0) {
      return Status::InvalidArgument("cluster.num_nodes must be >= 0");
    }
    if (vnodes < 1) {
      return Status::InvalidArgument("cluster.vnodes must be >= 1");
    }
    return rebalance.Validate();
  }
};

/// Parses one `kind:key=val,...` fault spec (rules at FaultOptions) into
/// `schedule`, with end= defaulting to `horizon_ms`. A null `schedule` is a
/// dry run: the spec is only checked, and a defaulted end= is not.
Status ParseFaultSpec(const std::string& spec, double horizon_ms,
                      kvs::FaultSchedule* schedule,
                      int default_gray_replicas = 3);

/// Table 3 leg fits by name: lnkd-ssd | lnkd-disk | ymmr | wan.
StatusOr<WarsDistributions> ScenarioLegs(const std::string& name);

/// The matching replica latency model (wan gets the per-replica WAN model,
/// everything else IID over the scenario legs).
StatusOr<ReplicaLatencyModelPtr> ScenarioModel(const std::string& name, int n);

/// Unified public configuration for PBS cluster experiments: one nested,
/// builder-style struct replacing the scattered option plumbing that grew
/// across KvsConfig / StalenessExperimentOptions / CLI flags. Groups:
///
///   quorum     — N/R/W and read fan-out            (QuorumOptions)
///   workload   — writes, spacing, probe offsets    (WorkloadOptions)
///   execution  — threads / chunk determinism       (ExecutionOptions)
///   hedge      — rapid read protection             (HedgeOptions)
///   retry      — client backoff/deadline policy    (RetryOptions)
///   faults     — gray-failure spec strings         (FaultOptions)
///   obs        — causal tracing policy             (ObsOptions)
///   cluster    — ring nodes / vnodes / rebalance   (ClusterOptions)
///
/// Everything validates through Status (no constructor asserts on the public
/// path) and lowers onto the internal structs via the Build* methods. The
/// With* setters chain:
///
///   auto experiment = Config{}
///       .WithScenario("lnkd-disk").WithQuorum(3, 1, 2)
///       .WithTracing(true).BuildExperiment();
struct Config {
  uint64_t seed = 7;

  /// WARS leg scenario: lnkd-ssd | lnkd-disk | ymmr | wan.
  std::string scenario = "lnkd-disk";

  QuorumOptions quorum;
  WorkloadOptions workload;
  ExecutionOptions execution;
  HedgeOptions hedge;
  RetryOptions retry;
  FaultOptions faults;
  ObsOptions obs;
  ClusterOptions cluster;

  /// Cluster mechanics (KvsConfig passthroughs).
  bool read_repair = false;
  double anti_entropy_interval_ms = 0.0;
  double request_timeout_ms = 1000.0;
  bool phi_detector = false;

  /// Declared staleness/latency SLA and the closed-loop controller policy
  /// steering toward it (KvsConfig passthroughs; see kvs/controller.h).
  SlaTarget sla;
  ControllerOptions controller;

  // -- Builder-style setters (each returns *this for chaining) --------------

  Config& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }
  Config& WithScenario(std::string name) {
    scenario = std::move(name);
    return *this;
  }
  Config& WithQuorum(int n, int r, int w) {
    quorum.n = n;
    quorum.r = r;
    quorum.w = w;
    return *this;
  }
  Config& WithFanout(ReadFanout fanout) {
    quorum.fanout = fanout;
    return *this;
  }
  Config& WithWorkload(int writes, double spacing_ms) {
    workload.writes = writes;
    workload.write_spacing_ms = spacing_ms;
    return *this;
  }
  Config& WithFaults(std::string fault_specs) {
    faults.specs = std::move(fault_specs);
    return *this;
  }
  Config& WithTracing(bool enabled) {
    obs.trace_enabled = enabled;
    return *this;
  }
  Config& WithCluster(int num_nodes, int vnodes = 16) {
    cluster.num_nodes = num_nodes;
    cluster.vnodes = vnodes;
    return *this;
  }
  Config& WithSla(const SlaTarget& target) {
    sla = target;
    return *this;
  }
  /// Engine behind the controller's per-epoch quorum predictor
  /// (kvs/options.h: ControllerOptions::backend). The default kMonteCarlo
  /// preserves historical decision streams bit-for-bit.
  Config& WithPredictorBackend(PredictorBackend backend) {
    controller.backend = backend;
    return *this;
  }
  /// Explicit analytic grid shape for the kAnalytic / kAuto controller
  /// backends (disables the default tail-aware auto-scaling of the bound;
  /// see AnalyticGridOptions::auto_max).
  Config& WithPredictorGrid(double max_ms, int bins) {
    controller.grid_max_ms = max_ms;
    controller.grid_bins = bins;
    controller.grid_auto_max = false;
    return *this;
  }
  /// Shorthand: declare the SLA and switch the closed loop on in one call.
  Config& WithControlLoop(const SlaTarget& target) {
    sla = target;
    controller.enabled = true;
    return *this;
  }
  /// Windowed time-series telemetry (DESIGN.md §13): cut a registry delta
  /// into the telemetry ring every `window_ms` of simulator time.
  /// `capacity` windows are retained (oldest roll off); 0 window disables.
  Config& WithTelemetry(double window_ms, size_t capacity = 512) {
    obs.telemetry_window_ms = window_ms;
    obs.timeseries_capacity = capacity;
    return *this;
  }
  /// Live predictor-drift monitor on top of telemetry. Requires a window
  /// cadence (WithTelemetry) and a declared SLA (WithSla/WithControlLoop);
  /// Validate enforces both.
  Config& WithMonitor(const obs::MonitorOptions& options = {}) {
    obs.monitor_enabled = true;
    obs.monitor = options;
    return *this;
  }

  // -- Validation and lowering ----------------------------------------------

  /// Validates every group (quorum shape, workload, scenario name, hedge /
  /// retry / obs ranges, fault-spec syntax). First failure wins.
  Status Validate() const;

  /// The scenario's leg distributions / replica model.
  StatusOr<WarsDistributions> ResolveLegs() const { return ScenarioLegs(scenario); }
  StatusOr<ReplicaLatencyModelPtr> ResolveModel() const {
    return ScenarioModel(scenario, quorum.n);
  }

  /// The harness drain bound, kvs::DrainHorizonMs of this workload (the
  /// horizon the experiment runner stops at, so fault schedules built
  /// against it cover the whole run).
  double HorizonMs() const;

  /// Lowers onto the internal cluster config (validating first).
  StatusOr<kvs::KvsConfig> BuildKvsConfig() const;

  /// Lowers onto the staleness-experiment harness options.
  StatusOr<kvs::StalenessExperimentOptions> BuildExperiment() const;

  /// Builds the configured fault schedule against HorizonMs(); an empty
  /// FaultOptions yields an empty schedule.
  StatusOr<kvs::FaultSchedule> BuildFaultSchedule() const;
};

}  // namespace pbs

#endif  // PBS_PBS_CONFIG_H_
