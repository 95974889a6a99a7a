// Cassandra-style consistency advisor: speak in ONE/TWO/QUORUM/ALL (the
// levels practitioners actually configure, Section 2.3) and get PBS
// predictions for every read/write level combination — the library as the
// "what does consistency level ONE actually give me?" tool.
//
//   $ ./cassandra_advisor [N]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/predictor.h"
#include "dist/production.h"
#include "kvs/consistency_level.h"
#include "util/table.h"

using namespace pbs;
using kvs::ConsistencyLevel;

int main(int argc, char** argv) {
  int n = 3;
  if (argc >= 2) n = std::atoi(argv[1]);
  if (n < 1 || n > 10) {
    std::cerr << "replication factor must be in [1, 10]\n";
    return 1;
  }

  std::printf(
      "Consistency-level advisor for N=%d over LNKD-DISK latencies\n"
      "(reads: P(fresh) immediately / after 10 ms; window = t for 99.9%% "
      "fresh reads; latencies at the 99.9th percentile)\n\n",
      n);

  const auto model = MakeIidModel(LnkdDisk(), n);
  const std::vector<ConsistencyLevel> levels = {
      ConsistencyLevel::kOne, ConsistencyLevel::kQuorum,
      ConsistencyLevel::kAll};

  TextTable table({"read CL", "write CL", "mode", "P(fresh,0ms)",
                   "P(fresh,10ms)", "window (ms)", "Lr (ms)", "Lw (ms)"});
  for (ConsistencyLevel read_level : levels) {
    for (ConsistencyLevel write_level : levels) {
      const auto config = kvs::MakeQuorumConfig(n, read_level, write_level);
      if (!config.ok()) continue;
      PredictorOptions options;
      options.trials = 100000;
      options.collect_propagation = false;
      const StatusOr<PbsPredictor> created =
          PbsPredictor::Create(config.value(), model, options);
      if (!created.ok()) {
        std::cerr << "cannot build predictor: " << created.status().message()
                  << "\n";
        return 1;
      }
      const PbsPredictor& predictor = created.value();
      table.AddRow({kvs::ToString(read_level), kvs::ToString(write_level),
                    config.value().IsStrict() ? "strict" : "partial",
                    FormatDouble(predictor.ProbConsistent(0.0), 4),
                    FormatDouble(predictor.ProbConsistent(10.0), 4),
                    FormatDouble(predictor.TimeForConsistency(0.999), 2),
                    FormatDouble(predictor.ReadLatencyPercentile(99.9), 2),
                    FormatDouble(predictor.WriteLatencyPercentile(99.9), 2)});
    }
  }
  table.Print(std::cout);

  std::cout << "\nRules of thumb this table quantifies:\n"
               "  - ONE/ONE (the Cassandra default) is fast but its window "
               "of inconsistency is tens of ms on disks;\n"
               "  - QUORUM/QUORUM is strict: zero window, at ~2x the "
               "latency;\n"
               "  - ONE/ALL and ALL/ONE are also strict - pay on exactly "
               "one side of the workload.\n";
  return 0;
}
