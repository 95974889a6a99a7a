#include "obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "obs/json.h"

namespace pbs {
namespace obs {

const WindowSnapshot& TimeSeries::AdvanceDelta(int64_t window_id,
                                               double start_ms, double end_ms,
                                               Registry delta) {
  assert(windows_.empty() || windows_.back().window_id < window_id);
  WindowSnapshot snapshot;
  snapshot.window_id = window_id;
  snapshot.start_ms = start_ms;
  snapshot.end_ms = end_ms;
  snapshot.delta = std::move(delta);
  windows_.push_back(std::move(snapshot));
  ++cut_;
  while (windows_.size() > capacity_) {
    windows_.pop_front();
    ++dropped_;
  }
  return windows_.back();
}

void TimeSeries::Merge(const TimeSeries& other) {
  std::deque<WindowSnapshot> merged;
  auto mine = windows_.begin();
  auto theirs = other.windows_.begin();
  int64_t shared = 0;
  while (mine != windows_.end() || theirs != other.windows_.end()) {
    if (theirs == other.windows_.end() ||
        (mine != windows_.end() && mine->window_id < theirs->window_id)) {
      merged.push_back(std::move(*mine++));
    } else if (mine == windows_.end() ||
               theirs->window_id < mine->window_id) {
      merged.push_back(*theirs++);
    } else {
      WindowSnapshot combined = std::move(*mine++);
      combined.start_ms = std::min(combined.start_ms, theirs->start_ms);
      combined.end_ms = std::max(combined.end_ms, theirs->end_ms);
      combined.delta.Merge(theirs->delta);
      ++theirs;
      ++shared;
      merged.push_back(std::move(combined));
    }
  }
  windows_ = std::move(merged);
  capacity_ = std::max(capacity_, other.capacity_);
  cut_ += other.cut_ - shared;  // shared ids count once toward the total
  dropped_ += other.dropped_;
  while (windows_.size() > capacity_) {
    windows_.pop_front();
    ++dropped_;
  }
}

namespace {

void EmitWindow(const WindowSnapshot& window, std::ostream& out) {
  out << "{\"type\":\"window\",\"window_id\":" << window.window_id
      << ",\"start_ms\":" << JsonNumber(window.start_ms)
      << ",\"end_ms\":" << JsonNumber(window.end_ms) << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : window.delta.counters()) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":" << counter.value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : window.delta.histograms()) {
    if (!first) out << ",";
    first = false;
    out << JsonString(name) << ":{\"count\":" << histogram.count()
        << ",\"min\":" << JsonNumber(histogram.min())
        << ",\"max\":" << JsonNumber(histogram.max())
        << ",\"mean\":" << JsonNumber(histogram.mean())
        << ",\"p50\":" << JsonNumber(histogram.Quantile(0.50))
        << ",\"p90\":" << JsonNumber(histogram.Quantile(0.90))
        << ",\"p99\":" << JsonNumber(histogram.Quantile(0.99)) << "}";
  }
  out << "}}\n";
}

}  // namespace

void WriteTimeSeriesJsonl(const TimeSeries& series, std::ostream& out,
                          double window_ms) {
  out << "{\"type\":\"meta\",\"windows\":" << series.windows().size()
      << ",\"windows_cut\":" << series.windows_cut()
      << ",\"windows_dropped\":" << series.windows_dropped()
      << ",\"window_ms\":" << JsonNumber(window_ms) << "}\n";
  for (const WindowSnapshot& window : series.windows()) {
    EmitWindow(window, out);
  }
}

std::string TimeSeriesJsonl(const TimeSeries& series, double window_ms) {
  std::ostringstream out;
  WriteTimeSeriesJsonl(series, out, window_ms);
  return out.str();
}

}  // namespace obs
}  // namespace pbs
