// Quickstart: predict the consistency and latency of a partial-quorum
// configuration in ten lines.
//
//   $ ./quickstart [N R W]
//
// Answers the two questions PBS poses about an eventually consistent
// Dynamo-style store: "how eventual?" (t-visibility) and "how consistent?"
// (k-staleness), plus the latency you buy by accepting that staleness.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/predictor.h"
#include "dist/production.h"

int main(int argc, char** argv) {
  pbs::QuorumConfig config{3, 1, 1};
  if (argc == 4) {
    config.n = std::atoi(argv[1]);
    config.r = std::atoi(argv[2]);
    config.w = std::atoi(argv[3]);
  }
  const pbs::Status valid = pbs::ValidateQuorumConfig(config);
  if (!valid.ok()) {
    std::cerr << "invalid quorum config: " << valid.message() << "\n";
    return 1;
  }

  // Latency model: LinkedIn's spinning-disk Voldemort fit (Table 3 of the
  // paper). Swap in LnkdSsd(), Ymmr(), or your own measured distributions.
  const auto model = pbs::MakeIidModel(pbs::LnkdDisk(), config.n);
  pbs::PredictorOptions options;
  options.trials = 200000;
  const pbs::StatusOr<pbs::PbsPredictor> created =
      pbs::PbsPredictor::Create(config, model, options);
  if (!created.ok()) {
    std::cerr << "cannot build predictor: " << created.status().message()
              << "\n";
    return 1;
  }
  const pbs::PbsPredictor& predictor = created.value();

  std::cout << "PBS predictions for " << config.ToString()
            << " over LNKD-DISK latencies\n";
  std::cout << "  quorum type: "
            << (config.IsStrict() ? "strict (R+W>N)" : "partial (R+W<=N)")
            << "\n\n";

  std::cout << "How eventual? (t-visibility)\n";
  for (double t : {0.0, 1.0, 10.0, 50.0, 100.0}) {
    std::printf("  P(consistent read %6.1f ms after commit) = %.4f\n", t,
                predictor.ProbConsistent(t));
  }
  std::printf("  window for 99.9%% consistent reads: %.2f ms\n\n",
              predictor.TimeForConsistency(0.999));

  std::cout << "How consistent? (k-staleness, Equation 2)\n";
  for (int k : {1, 2, 3, 5}) {
    std::printf("  P(value within newest %d version%s) = %.4f\n", k,
                k == 1 ? "" : "s", predictor.KFreshness(k));
  }

  std::cout << "\nWhat the partial quorum buys you (99.9th percentile):\n";
  std::printf("  read latency:  %7.2f ms\n",
              predictor.ReadLatencyPercentile(99.9));
  std::printf("  write latency: %7.2f ms\n",
              predictor.WriteLatencyPercentile(99.9));
  return 0;
}
