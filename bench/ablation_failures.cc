// A2 — Section 6 "Failure modes": fail-stop crashes turn an N-replica set
// into an (N-F)-replica set until recovery and surface as staleness (and
// availability) tail events. Sweeps crash rates (MTBF) at fixed MTTR and
// reports t-visibility and failure counts, with and without hinted handoff.

#include <iostream>

#include "bench/bench_util.h"
#include "dist/primitives.h"
#include "kvs/cluster.h"
#include "kvs/experiment.h"
#include "kvs/failure.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

void Run() {
  std::cout << "=== Ablation: fail-stop crashes vs t-visibility (N=3, "
               "R=W=1, LNKD-DISK legs) ===\n\n";

  const std::vector<double> offsets = {0.0, 5.0, 10.0, 50.0};
  struct Variant {
    std::string name;
    double mtbf_ms;  // 0 = no failures
    bool hinted_handoff;
  };
  // The experiment horizon is writes * spacing = 6000 * 250 ms = 1500 s.
  const std::vector<Variant> variants = {
      {"no failures", 0.0, false},
      {"MTBF 100s, MTTR 10s", 100e3, false},
      {"MTBF 100s, MTTR 10s + handoff", 100e3, true},
      {"MTBF 20s, MTTR 10s", 20e3, false},
      {"MTBF 20s, MTTR 10s + handoff", 20e3, true},
  };

  CsvWriter csv(std::string(bench::kResultsDir) + "/ablation_failures.csv");
  csv.WriteHeader({"variant", "t_ms", "p_consistent", "failed_ops"});

  std::vector<std::string> header = {"variant"};
  for (double t : offsets) header.push_back("t=" + FormatDouble(t, 0));
  header.push_back("failed reads");
  header.push_back("failed writes");
  header.push_back("handoffs");
  TextTable table(std::move(header));

  for (const auto& variant : variants) {
    kvs::StalenessExperimentOptions options;
    options.cluster.quorum = {3, 1, 1};
    options.cluster.legs = LnkdDisk();
    options.cluster.request_timeout_ms = 200.0;
    options.cluster.hinted_handoff = variant.hinted_handoff;
    options.cluster.hinted_handoff_backoff_base_ms = 500.0;
    options.cluster.hinted_handoff_backoff_max_ms = 500.0;
    options.cluster.hinted_handoff_max_retries = 100;
    options.writes = 6000;
    options.write_spacing_ms = 250.0;
    options.read_offsets_ms = offsets;
    options.seed = 2002;

    kvs::StalenessExperimentResult result;
    if (variant.mtbf_ms == 0.0) {
      result = kvs::RunStalenessExperiment(options);
    } else {
      result = kvs::RunStalenessExperimentWithFaults(
          options, kvs::FaultSchedule::RandomCrashRecover(
                       options.cluster.quorum.n,
                       options.writes * options.write_spacing_ms,
                       variant.mtbf_ms, /*mttr_ms=*/10e3, /*seed=*/303));
    }

    std::vector<std::string> row = {variant.name};
    for (size_t i = 0; i < offsets.size(); ++i) {
      const double p = result.t_visibility[i].ProbConsistent();
      row.push_back(FormatDouble(p, 4));
      csv.WriteRow(variant.name,
                   {offsets[i], p,
                    static_cast<double>(result.final_metrics.reads_failed +
                                        result.final_metrics.writes_failed)});
    }
    row.push_back(std::to_string(result.final_metrics.reads_failed));
    row.push_back(std::to_string(result.final_metrics.writes_failed));
    row.push_back(
        std::to_string(result.final_metrics.hinted_handoffs_sent));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  std::cout
      << "\nReading: exactly as Section 6 argues, a replica set with F "
         "crashed nodes behaves like an (N-F)-replica set — and per "
         "Figure 7, *smaller* effective N means *better* consistency "
         "immediately after commit for R=W=1 (here t=0 consistency rises "
         "with the crash rate) at the cost of availability (failed "
         "operations appear once two replicas are down simultaneously) "
         "and a staler high-t tail while recovered replicas catch up "
         "(compare t=50). Hinted handoff replays missed writes to "
         "recovering replicas, trimming that tail.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
