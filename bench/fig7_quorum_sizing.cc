// E7 — Figure 7: effect of the replication factor N on t-visibility with
// R=W=1, for LNKD-DISK, LNKD-SSD and WAN. Reproduces the paper's
// observation that P(consistent at t=0) drops as N grows, while the time to
// reach a high consistency probability barely moves.

#include <iostream>

#include "bench/bench_util.h"
#include "core/tvisibility.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

void Run() {
  std::cout << "=== Figure 7: t-visibility vs replication factor, R=W=1 "
               "===\n\n";
  const int trials = 400000;
  const std::vector<int> ns = {2, 3, 5, 10};
  const std::vector<double> ts = {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0};

  CsvWriter csv(std::string(bench::kResultsDir) + "/fig7_quorum_sizing.csv");
  csv.WriteHeader({"scenario", "n", "t_ms", "p_consistent"});

  for (const std::string& scenario_name :
       {std::string("LNKD-DISK"), std::string("LNKD-SSD"),
        std::string("WAN")}) {
    std::vector<std::string> header = {"N"};
    for (double t : ts) header.push_back("t=" + FormatDouble(t, 0));
    header.push_back("t@99.9%");
    TextTable table(std::move(header));
    for (int n : ns) {
      ReplicaLatencyModelPtr model;
      if (scenario_name == "LNKD-DISK") {
        model = MakeIidModel(LnkdDisk(), n);
      } else if (scenario_name == "LNKD-SSD") {
        model = MakeIidModel(LnkdSsd(), n);
      } else {
        model = MakeWanModel(WanLocalBase(), n);
      }
      const TVisibilityCurve curve =
          EstimateTVisibility({n, 1, 1}, model, trials, /*seed=*/77,
                              bench::BenchExecution());
      std::vector<double> row;
      for (double t : ts) {
        const double p = curve.ProbConsistent(t);
        row.push_back(p);
        csv.WriteRow(scenario_name,
                     {static_cast<double>(n), t, p});
      }
      row.push_back(curve.TimeForConsistency(0.999));
      table.AddRow("N=" + std::to_string(n), row, 4);
    }
    std::cout << scenario_name << ":\n";
    table.Print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Paper anchors (Section 5.7, LNKD-DISK): P(consistent at "
               "t=0) falls from 57.5% (N=2) to 21.1% (N=10), while the "
               "99.9% t-visibility only moves from ~45.3 ms to ~53.7 ms.\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
