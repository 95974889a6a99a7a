#ifndef PBS_CORE_BACKEND_H_
#define PBS_CORE_BACKEND_H_

#include <string>

#include "util/status.h"

namespace pbs {

/// Which engine answers PBS prediction queries (DESIGN.md §12).
///
///   kMonteCarlo — the WARS trial engine (core/wars.h): exact in
///                 distribution, cost proportional to the trial budget.
///   kAnalytic   — the grid solver (core/analytic.h): exact (to grid
///                 resolution) for operation latencies, approximate for
///                 t-visibility under documented independence assumptions;
///                 microseconds per query once the scenario grids are built.
///   kAuto       — analytic where its assumptions hold, Monte Carlo where
///                 they do not: non-IID latency models fall back outright,
///                 and IID models are spot-checked against a small MC run
///                 before the analytic answer is trusted.
enum class PredictorBackend {
  kMonteCarlo,
  kAnalytic,
  kAuto,
};

/// Stable wire/CLI name: "mc" | "analytic" | "auto".
const char* PredictorBackendName(PredictorBackend backend);

/// Parses the wire form accepted by --backend= flags.
StatusOr<PredictorBackend> ParsePredictorBackend(const std::string& text);

/// Discretization grid for the analytic solver: values land on a uniform
/// grid over [0, max_ms) with `bins` cells (mass beyond max_ms lumps into
/// the last bin). Finer grids cost more to build (O(bins log bins) per leg
/// convolution) but every per-quorum query stays O(bins * n).
struct AnalyticGridOptions {
  double max_ms = 4000.0;
  int bins = 20000;

  /// When true (the default), max_ms is only a *cap*: each scenario shrinks
  /// its grid to ~2x the extreme (1 - 1e-4) quantile of its slowest leg, so
  /// the step tracks the scenario's latency scale instead of the worst-case
  /// range. A sub-millisecond SSD fit then gets micro-scale resolution from
  /// the same bin budget a heavy-tailed fsync fit spends covering seconds.
  /// Explicit grids (CLI --grid-max-ms, WithPredictorGrid) switch this off
  /// and use max_ms literally. See AutoGridMaxMs (core/analytic.h).
  bool auto_max = true;

  Status Validate() const {
    if (!(max_ms > 0.0)) {
      return Status::InvalidArgument("grid.max_ms must be > 0, got " +
                                     std::to_string(max_ms));
    }
    if (bins < 1) {
      return Status::InvalidArgument("grid.bins must be >= 1, got " +
                                     std::to_string(bins));
    }
    return Status::Ok();
  }
};

/// kAuto's cross-validation guard: the analytic answer for a probe
/// configuration is compared against a small Monte Carlo run, and the
/// analytic engine is only kept when it agrees within these tolerances.
/// The bar is deliberately looser than bench/analytic_vs_mc's CI gate
/// (2% + 0.15 ms at 500K trials): the spot-check MC run is small, so its
/// own sampling noise at the p99 is a few percent.
///
/// Trial budget of the spot-check run (small on purpose: the check runs
/// once per engine construction, not per query).
inline constexpr int kAutoSpotCheckTrials = 20000;
/// Latency-quantile agreement: |analytic - mc| <= rel * mc + abs_ms.
inline constexpr double kAutoLatencyRelTol = 0.05;
inline constexpr double kAutoLatencyAbsTolMs = 0.25;
/// Consistency agreement on P(consistent | t) / freshness probabilities,
/// in absolute probability. Loose by design — a few points of probability
/// is the documented approximation error at t = 0 (bench/analytic_vs_mc),
/// and the MC side carries sampling noise of ~1/sqrt(trials) itself.
inline constexpr double kAutoConsistencyTol = 0.05;

}  // namespace pbs

#endif  // PBS_CORE_BACKEND_H_
