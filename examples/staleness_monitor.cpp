// Staleness monitor: the Section 4.3 operational story. A cluster serves a
// workload while the coordinator-side asynchronous detector classifies
// every read from its late replica responses; the monitor compares the
// detector's live consistency estimate against the PBS prediction an
// operator would have computed offline — detection validates prediction.
//
//   $ ./staleness_monitor

#include <cstdio>
#include <iostream>
#include <vector>

#include "core/predictor.h"
#include "core/staleness_detector.h"
#include "dist/primitives.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "util/table.h"

using namespace pbs;

int main() {
  // Slow, high-variance writes: the regime where staleness is visible.
  const auto legs = MakeWars("slow-w", Exponential(0.05), Exponential(1.0));
  const QuorumConfig quorum{3, 1, 1};

  std::cout << "Offline PBS prediction (what the operator expects):\n";
  PredictorOptions options;
  options.trials = 200000;
  const StatusOr<PbsPredictor> created =
      PbsPredictor::Create(quorum, MakeIidModel(legs, 3), options);
  if (!created.ok()) {
    std::cerr << "cannot build predictor: " << created.status().message()
              << "\n";
    return 1;
  }
  const PbsPredictor& predictor = created.value();
  std::printf("  P(consistent | t=0)  = %.4f\n",
              predictor.ProbConsistent(0.0));
  std::printf("  99.9%% window         = %.1f ms\n\n",
              predictor.TimeForConsistency(0.999));

  std::cout << "Online detector (what the cluster observes, Section 4.3):\n";
  kvs::KvsConfig config;
  config.quorum = quorum;
  config.legs = legs;
  config.request_timeout_ms = 5000.0;
  config.num_coordinators = 2;
  kvs::Cluster cluster(config);

  // Commit-time oracle: track commits as they happen so the detector can
  // separate true staleness from newer-but-uncommitted false positives.
  std::vector<double> commit_times(60001, -1.0);
  StalenessDetector detector([&commit_times](int64_t version) {
    if (version <= 0 || version > 60000) return -1.0;
    return commit_times[version];
  });
  cluster.set_late_read_hook([&detector](const kvs::LateReadInfo& info) {
    ReadObservation obs;
    obs.returned_version = info.returned_sequence;
    obs.read_start_time = info.read_start_time;
    obs.late_response_versions = info.late_response_sequences;
    detector.Observe(obs);
  });

  kvs::ClientSession writer(&cluster, cluster.coordinator(0).id(), 1);
  kvs::ClientSession reader(&cluster, cluster.coordinator(1).id(), 2);
  const int rounds = 30000;
  for (int i = 1; i <= rounds; ++i) {
    cluster.sim().At(i * 40.0, [&, i]() {
      writer.Write(1, "v", [&, i](const kvs::WriteResult& w) {
        if (w.ok) commit_times[i] = w.commit_time;
      });
      reader.Read(1, nullptr);  // concurrent with the write stream
    });
  }
  cluster.sim().Run();

  TextTable table({"verdict", "count"});
  table.AddRow({"consistent", std::to_string(detector.consistent())});
  table.AddRow({"stale (newer committed before read)",
                std::to_string(detector.stale())});
  table.AddRow({"false positive (newer but uncommitted)",
                std::to_string(detector.false_positives())});
  table.Print(std::cout);
  std::printf("\n  detector's consistency estimate: %.4f\n",
              detector.EmpiricalConsistency());
  std::cout << "\nNote: the detector sees reads issued concurrently with "
               "writes (not t=0 probes), so its estimate sits near — and "
               "its false-positive bucket explains the gap to — the "
               "prediction; with the commit oracle the classification is "
               "exact, as Section 4.3 describes. Speculative execution "
               "could subscribe to exactly these verdicts.\n";
  return 0;
}
