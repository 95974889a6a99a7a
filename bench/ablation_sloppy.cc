// A9 — Ablation: sloppy quorums + hinted handoff under fail-stop churn.
// Dynamo's answer to "writes must not fail while replicas bounce": a write
// coordinator substitutes suspected home replicas with the next healthy
// nodes on the ring, which park the write as a hint and forward it after
// recovery. Measures write availability and t-visibility with the
// mechanism off/on across crash rates, on a 5-node ring with N=3, W=2.

#include <iostream>

#include "bench/bench_util.h"
#include "dist/primitives.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

void Run() {
  std::cout << "=== Sloppy quorums + hinted handoff vs strict membership "
               "under churn ===\n"
               "(5 storage nodes, N=3 R=1 W=2, LNKD-SSD legs, MTTR 5 s, "
               "200 ms op timeout)\n\n";

  const std::vector<double> offsets = {0.0, 5.0, 25.0};
  const double spacing = 100.0;
  const int writes = 12000;

  CsvWriter csv(std::string(bench::kResultsDir) + "/ablation_sloppy.csv");
  csv.WriteHeader({"variant", "mtbf_s", "failed_writes", "failed_reads",
                   "substitutions", "hints_delivered", "p_consistent_t0"});

  TextTable table({"variant", "MTBF", "failed writes", "failed reads",
                   "substitutions", "hints stored/delivered",
                   "P(consistent, t=0)", "P(consistent, 25ms)"});
  for (double mtbf_s : {60.0, 15.0}) {
    for (bool sloppy : {false, true}) {
      kvs::StalenessExperimentOptions options;
      options.cluster.quorum = {3, 1, 2};
      options.cluster.num_storage_nodes = 5;
      options.cluster.legs = LnkdSsd();
      options.cluster.request_timeout_ms = 200.0;
      options.cluster.sloppy_quorums = sloppy;
      options.cluster.heartbeat_interval_ms = 50.0;
      options.cluster.suspect_timeout_ms = 150.0;
      options.cluster.hint_delivery_interval_ms = 100.0;
      options.writes = writes;
      options.write_spacing_ms = spacing;
      options.read_offsets_ms = offsets;
      options.seed = 909;
      const auto failures = kvs::FaultSchedule::RandomCrashRecover(
          5, writes * spacing, mtbf_s * 1000.0, /*mttr_ms=*/5000.0,
          /*seed=*/910);
      const auto result =
          kvs::RunStalenessExperimentWithFaults(options, failures);

      const std::string name =
          std::string(sloppy ? "sloppy+handoff" : "strict membership");
      table.AddRow(
          {name, FormatDouble(mtbf_s, 0) + "s",
           std::to_string(result.final_metrics.writes_failed),
           std::to_string(result.final_metrics.reads_failed),
           std::to_string(result.final_metrics.sloppy_substitutions),
           std::to_string(result.final_metrics.hints_stored) + "/" +
               std::to_string(result.final_metrics.hints_delivered),
           FormatDouble(result.t_visibility[0].ProbConsistent(), 4),
           FormatDouble(result.t_visibility[2].ProbConsistent(), 4)});
      csv.WriteRow(name,
                   {mtbf_s,
                    static_cast<double>(result.final_metrics.writes_failed),
                    static_cast<double>(result.final_metrics.reads_failed),
                    static_cast<double>(
                        result.final_metrics.sloppy_substitutions),
                    static_cast<double>(
                        result.final_metrics.hints_delivered),
                    result.t_visibility[0].ProbConsistent()});
    }
  }
  table.Print(std::cout);

  std::cout
      << "\nReading: with strict membership, every crash window in which a "
         "home replica holds one of the W=2 required acks turns writes "
         "into timeouts; sloppy quorums keep the write path available "
         "(failed writes drop to ~0) at a small staleness cost while "
         "hints are parked off the read path, repaid when handoff "
         "delivers them after recovery.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
