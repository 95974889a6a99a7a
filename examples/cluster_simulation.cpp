// Cluster simulation: drive the full event-driven Dynamo-style KVS — the
// same substrate the Section 5.2 validation uses — under a mixed workload
// with failures, read repair and gossip anti-entropy, and report measured
// consistency, staleness and the Section 4.3 staleness-detector verdicts.
//
//   $ ./cluster_simulation

#include <cstdio>
#include <iostream>

#include "dist/primitives.h"
#include "dist/production.h"
#include "kvs/cluster.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "kvs/workload.h"
#include "util/table.h"

using namespace pbs;

namespace {

void RunWorkloadDemo() {
  std::cout << "--- Mixed workload on a simulated N=3, R=W=1 cluster "
               "(YMMR latencies, read repair on) ---\n";
  kvs::KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = Ymmr();
  config.read_repair = true;
  config.anti_entropy_interval_ms = 500.0;
  config.request_timeout_ms = 5000.0;
  config.num_coordinators = 2;
  config.seed = 42;
  kvs::Cluster cluster(config);
  cluster.StartAntiEntropy();

  kvs::WorkloadOptions workload;
  workload.operations = 20000;
  workload.read_fraction = 0.9;  // the YMMR mix is read-heavy
  workload.num_keys = 100;
  workload.zipf_theta = 0.9;
  workload.mean_interarrival_ms = 1.0;
  workload.num_clients = 8;
  kvs::WorkloadDriver driver(&cluster, workload);
  const kvs::WorkloadResult result = driver.RunToCompletion();

  std::printf("  reads completed:      %8ld\n", result.reads_completed);
  std::printf("  writes committed:     %8ld\n", result.writes_committed);
  std::printf("  failed operations:    %8ld\n", result.failed_operations);
  std::printf("  monotonic violations: %8ld\n", result.monotonic_violations);
  std::printf("  P(read >= 1 version stale): %.4f\n",
              result.staleness.ProbStalerThan(1));
  std::printf("  P(read >= 2 versions stale): %.4f\n",
              result.staleness.ProbStalerThan(2));
  const auto& metrics = cluster.metrics();
  std::printf("  read latency p50/p99.9: %.2f / %.2f ms\n",
              metrics.read_latency.ToProfile().Percentile(50.0),
              metrics.read_latency.ToProfile().Percentile(99.9));
  std::printf("  write latency p50/p99.9: %.2f / %.2f ms\n",
              metrics.write_latency.ToProfile().Percentile(50.0),
              metrics.write_latency.ToProfile().Percentile(99.9));
  std::printf("  read repairs sent: %ld, gossip values shipped: %ld\n\n",
              metrics.read_repairs_sent,
              metrics.anti_entropy_values_shipped);
}

void RunStalenessProbeDemo() {
  std::cout << "--- Section 5.2-style staleness probe with fail-stop "
               "failures (LNKD-DISK legs) ---\n";
  kvs::StalenessExperimentOptions options;
  options.cluster.quorum = {3, 1, 1};
  options.cluster.legs = LnkdDisk();
  options.cluster.request_timeout_ms = 250.0;
  options.cluster.hinted_handoff = true;
  options.writes = 4000;
  options.write_spacing_ms = 250.0;
  options.read_offsets_ms = {0.0, 5.0, 10.0, 25.0, 50.0};
  // One crash/recover cycle per ~100 s per replica.
  const auto failures = kvs::FaultSchedule::RandomCrashRecover(
      3, 4000 * 250.0, /*mtbf_ms=*/100e3, /*mttr_ms=*/5e3, /*seed=*/9);
  const auto result = kvs::RunStalenessExperimentWithFaults(options, failures);

  TextTable table({"t after commit (ms)", "P(consistent)", "probes"});
  for (const auto& point : result.t_visibility) {
    table.AddRow({FormatDouble(point.t, 1),
                  FormatDouble(point.ProbConsistent(), 4),
                  std::to_string(point.trials)});
  }
  table.Print(std::cout);
  std::printf(
      "  staleness detector (Section 4.3): %ld consistent, %ld stale, "
      "%ld false positives\n",
      result.detector_consistent, result.detector_stale,
      result.detector_false_positives);
  std::printf("  failed reads/writes under churn: %ld / %ld, handoffs: %ld\n",
              result.final_metrics.reads_failed,
              result.final_metrics.writes_failed,
              result.final_metrics.hinted_handoffs_sent);
}

}  // namespace

int main() {
  RunWorkloadDemo();
  RunStalenessProbeDemo();
  return 0;
}
