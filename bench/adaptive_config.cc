// A7 — Section 6 "Variable configurations": re-picking (R, W) across
// latency-regime shifts. The environment moves through epochs (SSD-era ->
// disk-era -> heavy-tailed YMMR -> back to SSD); at each epoch the §6
// optimizer (core/sla.h) re-scores the (R, W) lattice for fixed N against a
// 10 ms @ 99.9% staleness SLA, minimizing 99.9th-percentile latency, and
// Repick keeps the incumbent unless its hysteresis margin is cleared.
//
// The schedule runs once per backend (Monte Carlo, then analytic) and the
// per-epoch wall time is compared — the DESIGN.md §12 claim that the grid
// backend makes control epochs effectively free.
//
// Exits non-zero unless EXPERIMENTS.md's statement of A7 holds (see
// CheckA7). The Monte Carlo path is seeded, so the verdict is the same on
// any host; no wall-clock number is gated.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "core/sla.h"
#include "util/csv.h"
#include "util/table.h"

namespace {

using namespace pbs;

struct Epoch {
  std::string name;
  ReplicaLatencyModelPtr model;
};

struct EpochResult {
  SlaCandidate chosen;
  bool switched = false;
  double epoch_ms = 0.0;
};

// The caller holds the incumbent: each epoch scores the lattice under that
// epoch's model, seeded 7007 + e * 1000003 for 1-based epoch e, and
// re-picks from the scores.
std::vector<EpochResult> RunSchedule(const std::vector<Epoch>& epochs,
                                     PredictorBackend backend) {
  SlaConstraints box;
  box.min_n = 3;
  box.max_n = 3;
  box.consistency_probability = 0.999;
  box.max_t_visibility_ms = 10.0;
  QuorumConfig incumbent{3, 1, 1};
  std::vector<EpochResult> results;
  for (size_t e = 1; e <= epochs.size(); ++e) {
    const auto start = std::chrono::steady_clock::now();
    const ReplicaLatencyModelPtr& model = epochs[e - 1].model;
    const SlaOptimizer optimizer([&model](int) { return model; },
                                 /*trials_per_config=*/60000,
                                 /*seed=*/7007 + e * 1000003ULL, {}, backend);
    EpochResult result;
    result.chosen = Repick(incumbent, optimizer.EnumerateAll(box, {}).value());
    result.epoch_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    result.switched = !(result.chosen.config == incumbent);
    incumbent = result.chosen.config;
    results.push_back(result);
  }
  return results;
}

// EXPERIMENTS.md's A7: every epoch feasible; R=W=1 held through the SSD
// epochs, left on the disk migration and held through the steady disk and
// YMMR epochs, and taken back on the return to SSDs; both backends agree
// on every (R, W).
int CheckA7(const std::vector<EpochResult>& mc,
            const std::vector<EpochResult>& analytic) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (ok) return;
    std::cout << "GATE FAIL: " << what << "\n";
    ++failures;
  };
  const auto fast = [](const EpochResult& r) {
    return r.chosen.config.r == 1 && r.chosen.config.w == 1;
  };
  for (size_t i = 0; i < mc.size(); ++i) {
    const std::string epoch = "epoch " + std::to_string(i + 1);
    check(mc[i].chosen.feasible && analytic[i].chosen.feasible,
          epoch + " misses the SLA");
    check(mc[i].chosen.config == analytic[i].chosen.config,
          epoch + ": mc and analytic choose different (R, W)");
  }
  check(fast(mc[0]) && fast(mc[1]) && !mc[0].switched && !mc[1].switched,
        "epochs 1-2 must hold N=3 R=1 W=1");
  check(mc[2].switched && !fast(mc[2]),
        "epoch 3 must switch away from R=W=1");
  check(!mc[3].switched && !mc[4].switched, "epochs 4-5 must not switch");
  check(mc[5].switched && fast(mc[5]), "epoch 6 must switch back to R=W=1");
  return failures;
}

int Run() {
  std::cout << "=== Adaptive (R, W) reconfiguration across latency-regime "
               "shifts (N=3, SLA: 10 ms @ 99.9%) ===\n\n";

  const std::vector<Epoch> epochs = {
      {"SSD fleet", MakeIidModel(LnkdSsd(), 3)},
      {"SSD fleet (steady)", MakeIidModel(LnkdSsd(), 3)},
      {"disk fleet (migration)", MakeIidModel(LnkdDisk(), 3)},
      {"disk fleet (steady)", MakeIidModel(LnkdDisk(), 3)},
      {"fsync-bound (YMMR)", MakeIidModel(Ymmr(), 3)},
      {"back to SSD", MakeIidModel(LnkdSsd(), 3)},
  };
  const std::vector<EpochResult> mc =
      RunSchedule(epochs, PredictorBackend::kMonteCarlo);
  const std::vector<EpochResult> analytic =
      RunSchedule(epochs, PredictorBackend::kAnalytic);

  CsvWriter csv(std::string(bench::kResultsDir) + "/adaptive_config.csv");
  csv.WriteHeader({"epoch", "environment", "r", "w", "t_visibility_ms",
                   "objective_ms", "feasible", "switched"});
  TextTable table({"epoch", "environment", "config", "t@99.9% (ms)",
                   "objective (ms)", "SLA met", "switched"});
  for (size_t e = 0; e < epochs.size(); ++e) {
    const SlaCandidate& chosen = mc[e].chosen;
    table.AddRow({std::to_string(e + 1), epochs[e].name,
                  chosen.config.ToString(),
                  FormatDouble(chosen.t_visibility_ms, 2),
                  FormatDouble(chosen.objective, 2),
                  chosen.feasible ? "yes" : "NO",
                  mc[e].switched ? "yes" : "-"});
    csv.WriteRow(epochs[e].name,
                 {static_cast<double>(e + 1),
                  static_cast<double>(chosen.config.r),
                  static_cast<double>(chosen.config.w),
                  chosen.t_visibility_ms, chosen.objective,
                  chosen.feasible ? 1.0 : 0.0, mc[e].switched ? 1.0 : 0.0});
  }
  table.Print(std::cout);

  std::cout
      << "\nReading: on SSDs R=W=1 meets the SLA at minimal latency; the "
         "disk migration blows the 10 ms window and the optimizer buys "
         "consistency with a bigger read quorum; under YMMR's fsync tails "
         "the strict R=3 read quorum it already holds keeps the SLA, so it "
         "stays put; returning to SSDs it relaxes again (only past the "
         "hysteresis margin, so no flapping on noise).\n";

  // The same epoch schedule per backend, timed: the analytic path scores
  // the identical (R, W) lattice off one grid per epoch instead of a Monte
  // Carlo batch per candidate.
  std::cout << "\n=== Epoch cost by predictor backend (same schedule) ===\n\n";
  CsvWriter bcsv(std::string(bench::kResultsDir) +
                 "/adaptive_config_backend.csv");
  bcsv.WriteHeader({"backend", "epoch", "r", "w", "feasible",
                    "epoch_ms"});
  TextTable btable({"backend", "decisions (R,W per epoch)", "total (ms)",
                    "per epoch (ms)"});
  const auto add_row = [&](PredictorBackend backend,
                           const std::vector<EpochResult>& results) {
    std::string decisions;
    double total_ms = 0.0;
    for (size_t e = 0; e < results.size(); ++e) {
      const SlaCandidate& chosen = results[e].chosen;
      total_ms += results[e].epoch_ms;
      decisions += (e ? " " : "") + std::to_string(chosen.config.r) + "," +
                   std::to_string(chosen.config.w);
      bcsv.WriteRow(PredictorBackendName(backend),
                    {static_cast<double>(e + 1),
                     static_cast<double>(chosen.config.r),
                     static_cast<double>(chosen.config.w),
                     chosen.feasible ? 1.0 : 0.0, results[e].epoch_ms});
    }
    btable.AddRow({PredictorBackendName(backend), decisions,
                   FormatDouble(total_ms, 1),
                   FormatDouble(total_ms / results.size(), 2)});
  };
  add_row(PredictorBackend::kMonteCarlo, mc);
  add_row(PredictorBackend::kAnalytic, analytic);
  btable.Print(std::cout);
  std::cout << "\nReading: both backends walk the same regime shifts to the "
               "same quorum choices (grid bias common to all candidates "
               "cancels in the comparison); the analytic epochs cost an "
               "order of magnitude less than the Monte Carlo ones — cheap "
               "enough to re-run the control loop every measurement window "
               "instead of amortizing it.\n";

  const int failures = CheckA7(mc, analytic);
  if (failures != 0) {
    std::cout << "\n" << failures << " A7 gate(s) failed\n";
    return 1;
  }
  std::cout << "\nA7 gate passed\n";
  return 0;
}

}  // namespace

int main() { return Run(); }
