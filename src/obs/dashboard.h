#ifndef PBS_OBS_DASHBOARD_H_
#define PBS_OBS_DASHBOARD_H_

#include <string>

namespace pbs {
namespace obs {

/// Renders a self-contained HTML consistency dashboard (inline CSS + SVG,
/// zero external dependencies — openable from a file:// URL offline) from
/// the telemetry JSONL artifact: the typed lines written by
/// WriteTimeSeriesJsonl ("meta"/"window"), WriteMonitorJsonl
/// ("sample"/"alert") and the controller's decision exporter ("decision").
/// Charts: measured vs. predicted freshness, read-latency quantiles vs.
/// prediction, per-window drift score, and mitigation traffic; tables:
/// raised alerts and the controller's per-epoch candidate audit.
/// Unknown line types are ignored, so the artifact schema can grow.
/// Backs `pbs report` and `pbs simulate --dashboard-out=`.
std::string RenderDashboardHtml(const std::string& telemetry_jsonl,
                                const std::string& title);

}  // namespace obs
}  // namespace pbs

#endif  // PBS_OBS_DASHBOARD_H_
