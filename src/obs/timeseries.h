#ifndef PBS_OBS_TIMESERIES_H_
#define PBS_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>

#include "obs/registry.h"

namespace pbs {
namespace obs {

/// One fixed-interval window cut from a cumulative Registry: the named
/// deltas of every counter and histogram over [start_ms, end_ms). Windows
/// are the unit the streaming-telemetry layer reasons in (DESIGN.md §13):
/// mergeable across parallel campaign chunks by window_id, and serialized
/// bitwise deterministically.
struct WindowSnapshot {
  int64_t window_id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  Registry delta;

  friend bool operator==(const WindowSnapshot&, const WindowSnapshot&) =
      default;
};

/// A ring buffer of WindowSnapshots. The owner calls AdvanceDelta once per
/// window tick (simulator-clock driven, via the timer wheel) with the
/// window's delta; the time series retains the newest `capacity` windows
/// and drops the oldest beyond that (allocation pattern independent of run
/// length). Not thread-safe, like Registry: one series per single-threaded
/// cluster, merged afterwards.
class TimeSeries {
 public:
  explicit TimeSeries(size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Cuts window `window_id` spanning [start_ms, end_ms) from `delta`,
  /// which the producer differences incrementally (the kvs telemetry tick
  /// diffs flat counter snapshots and records window latency samples
  /// directly; instruments that did not move are left out, so quiet
  /// windows stay small). Returns the appended snapshot. Window ids must
  /// be strictly increasing.
  const WindowSnapshot& AdvanceDelta(int64_t window_id, double start_ms,
                                     double end_ms, Registry delta);

  const std::deque<WindowSnapshot>& windows() const { return windows_; }
  size_t capacity() const { return capacity_; }
  /// Total windows cut, including any rolled out of the ring.
  int64_t windows_cut() const { return cut_; }
  /// Windows dropped by ring rollover.
  int64_t windows_dropped() const { return dropped_; }

  /// Window-id-aligned merge (the campaign surface): snapshots sharing a
  /// window_id merge registry-wise (Merge order = call order, so a
  /// chunk-ordered fold is bitwise deterministic); ids unique to either
  /// side interleave in ascending window_id order. The merged ring keeps
  /// the larger capacity and re-applies rollover.
  void Merge(const TimeSeries& other);

  friend bool operator==(const TimeSeries&, const TimeSeries&) = default;

 private:
  size_t capacity_;
  std::deque<WindowSnapshot> windows_;
  int64_t cut_ = 0;
  int64_t dropped_ = 0;
};

/// Serializes a time series as JSONL: one "meta" line (window count,
/// rollover stats), then one "window" line per retained window carrying
/// every moved counter and a quantile digest + bucket list per moved
/// histogram, names sorted. Byte-identical for equal series (golden-pinned
/// in tests); `window_ms` is echoed into the meta line so offline joins
/// against audit rows need no side channel (0 = unknown).
void WriteTimeSeriesJsonl(const TimeSeries& series, std::ostream& out,
                          double window_ms = 0.0);
std::string TimeSeriesJsonl(const TimeSeries& series, double window_ms = 0.0);

}  // namespace obs
}  // namespace pbs

#endif  // PBS_OBS_TIMESERIES_H_
