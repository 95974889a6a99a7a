// SLA explorer: the Section 6 "Latency/Staleness SLA" workflow an operator
// would run. Given a staleness SLA (window + probability), a durability
// floor and a workload read/write mix, enumerates the (N, R, W) space and
// prints the latency-optimal feasible configuration plus the runner-ups.
//
//   $ ./sla_explorer [max_t_ms] [probability] [min_w] [read_fraction]
//   e.g. ./sla_explorer 15 0.999 2 0.8

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/sla.h"
#include "dist/production.h"
#include "util/table.h"

int main(int argc, char** argv) {
  double max_t_ms = 15.0;
  double probability = 0.999;
  int min_w = 1;
  double read_fraction = 0.8;
  if (argc >= 2) max_t_ms = std::atof(argv[1]);
  if (argc >= 3) probability = std::atof(argv[2]);
  if (argc >= 4) min_w = std::atoi(argv[3]);
  if (argc >= 5) read_fraction = std::atof(argv[4]);

  std::printf(
      "SLA: reads consistent within %.1f ms with probability %.4f; "
      "durability floor W >= %d; workload %.0f%% reads.\n"
      "Latency model: LNKD-DISK (swap in your own fits).\n\n",
      max_t_ms, probability, min_w, 100.0 * read_fraction);

  pbs::SlaOptimizer optimizer(
      [](int n) { return pbs::MakeIidModel(pbs::LnkdDisk(), n); },
      /*trials_per_config=*/50000, /*seed=*/7);

  pbs::SlaConstraints constraints;
  constraints.min_n = 2;
  constraints.max_n = 5;
  constraints.min_write_quorum = min_w;
  constraints.consistency_probability = probability;
  constraints.max_t_visibility_ms = max_t_ms;

  pbs::SlaObjective objective;
  objective.latency_percentile = 99.9;
  objective.read_weight = read_fraction;
  objective.write_weight = 1.0 - read_fraction;

  const auto scored = optimizer.EnumerateAll(constraints, objective);
  if (!scored.ok()) {
    std::cerr << scored.status().message() << "\n";
    return 1;
  }
  const auto& candidates = scored.value();
  if (candidates.empty() || !candidates.front().feasible) {
    std::cout << "No configuration satisfies this SLA within N <= "
              << constraints.max_n << ". Relax the window or probability.\n";
    return 1;
  }

  pbs::TextTable table({"rank", "config", "t@SLA prob (ms)",
                        "Lr 99.9 (ms)", "Lw 99.9 (ms)",
                        "weighted objective", "feasible"});
  int rank = 1;
  for (const auto& candidate : candidates) {
    if (rank > 10) break;
    table.AddRow({std::to_string(rank++), candidate.config.ToString(),
                  pbs::FormatDouble(candidate.t_visibility_ms, 2),
                  pbs::FormatDouble(candidate.read_latency_ms, 2),
                  pbs::FormatDouble(candidate.write_latency_ms, 2),
                  pbs::FormatDouble(candidate.objective, 2),
                  candidate.feasible ? "yes" : "no"});
  }
  table.Print(std::cout);

  const auto& best = candidates.front();
  std::printf(
      "\nRecommendation: %s — %.2f ms weighted 99.9th-pct latency while "
      "meeting the %.1f ms staleness window.\n",
      best.config.ToString().c_str(), best.objective, max_t_ms);
  if (best.config.IsPartial()) {
    std::cout << "This is a PARTIAL quorum: the SLA is met "
                 "probabilistically (PBS), not by quorum intersection.\n";
  }
  return 0;
}
