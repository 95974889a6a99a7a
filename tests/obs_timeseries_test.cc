// Windowed time-series layer (DESIGN.md §13): the AdvanceDelta ring,
// rollover accounting, window-id-aligned merges, and the golden bytes of
// the JSONL exporter.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "obs/registry.h"
#include "obs/timeseries.h"

namespace pbs {
namespace obs {
namespace {

TEST(TimeSeriesTest, RolloverDropsOldestAndCounts) {
  TimeSeries series(2);
  for (int64_t id = 0; id < 5; ++id) {
    Registry delta;
    delta.counter("w").Add(id + 1);
    series.AdvanceDelta(id, id * 100.0, (id + 1) * 100.0, std::move(delta));
  }
  EXPECT_EQ(series.windows().size(), 2u);
  EXPECT_EQ(series.windows_cut(), 5);
  EXPECT_EQ(series.windows_dropped(), 3);
  EXPECT_EQ(series.windows().front().window_id, 3);
  EXPECT_EQ(series.windows().back().window_id, 4);
}

TEST(TimeSeriesTest, ZeroCapacityClampsToOne) {
  TimeSeries series(0);
  EXPECT_EQ(series.capacity(), 1u);
  series.AdvanceDelta(0, 0.0, 1.0, Registry{});
  series.AdvanceDelta(1, 1.0, 2.0, Registry{});
  EXPECT_EQ(series.windows().size(), 1u);
  EXPECT_EQ(series.windows().front().window_id, 1);
}

TEST(TimeSeriesTest, MergeAlignsSharedWindowIds) {
  TimeSeries a(8);
  Registry da0;
  da0.counter("reads").Add(10);
  a.AdvanceDelta(0, 0.0, 500.0, std::move(da0));
  Registry da1;
  da1.counter("reads").Add(20);
  a.AdvanceDelta(1, 500.0, 990.0, std::move(da1));

  TimeSeries b(8);
  Registry db1;
  db1.counter("reads").Add(5);
  b.AdvanceDelta(1, 500.0, 1000.0, std::move(db1));
  Registry db2;
  db2.counter("reads").Add(7);
  b.AdvanceDelta(2, 1000.0, 1500.0, std::move(db2));

  a.Merge(b);
  ASSERT_EQ(a.windows().size(), 3u);
  EXPECT_EQ(a.windows()[0].window_id, 0);
  EXPECT_EQ(a.windows()[1].window_id, 1);
  EXPECT_EQ(a.windows()[2].window_id, 2);
  // Shared id 1 merged registry-wise; its span widens to the union.
  EXPECT_EQ(a.windows()[1].delta.FindCounter("reads")->value, 25);
  EXPECT_DOUBLE_EQ(a.windows()[1].end_ms, 1000.0);
  // Shared ids count once toward the cut total.
  EXPECT_EQ(a.windows_cut(), 3);
}

TEST(TimeSeriesTest, MergeKeepsLargerCapacityAndReappliesRollover) {
  TimeSeries a(2);
  for (int64_t id : {2, 3}) {
    a.AdvanceDelta(id, id * 1.0, id + 1.0, Registry{});
  }
  TimeSeries b(3);
  for (int64_t id : {0, 1, 4}) {
    b.AdvanceDelta(id, id * 1.0, id + 1.0, Registry{});
  }
  a.Merge(b);
  EXPECT_EQ(a.capacity(), 3u);
  ASSERT_EQ(a.windows().size(), 3u);
  EXPECT_EQ(a.windows().front().window_id, 2);
  EXPECT_EQ(a.windows().back().window_id, 4);
  EXPECT_EQ(a.windows_cut(), 5);
  EXPECT_EQ(a.windows_dropped(), 2);
}

TEST(TimeSeriesJsonlTest, GoldenBytes) {
  TimeSeries series(8);
  Registry first;
  first.counter("ops").Add(2);
  series.AdvanceDelta(0, 0.0, 500.0, std::move(first));
  Registry second;
  second.counter("ops").Add(3);
  second.histogram("lat").Record(2.0);
  series.AdvanceDelta(1, 500.0, 1000.0, std::move(second));

  // A single-sample histogram clamps every quantile to the one value; the
  // exact bytes below are the format contract for offline consumers
  // (`pbs report` parses exactly these lines).
  const std::string expected =
      "{\"type\":\"meta\",\"windows\":2,\"windows_cut\":2,"
      "\"windows_dropped\":0,\"window_ms\":500}\n"
      "{\"type\":\"window\",\"window_id\":0,\"start_ms\":0,\"end_ms\":500,"
      "\"counters\":{\"ops\":2},\"histograms\":{}}\n"
      "{\"type\":\"window\",\"window_id\":1,\"start_ms\":500,"
      "\"end_ms\":1000,\"counters\":{\"ops\":3},\"histograms\":{\"lat\":"
      "{\"count\":1,\"min\":2,\"max\":2,\"mean\":2,\"p50\":2,\"p90\":2,"
      "\"p99\":2}}}\n";
  EXPECT_EQ(TimeSeriesJsonl(series, 500.0), expected);
}

TEST(TimeSeriesJsonlTest, DeterministicAndMetaEchoesWindowMs) {
  TimeSeries series(4);
  Registry delta;
  delta.counter("x").Add(1);
  series.AdvanceDelta(0, 0.0, 250.0, std::move(delta));
  const std::string once = TimeSeriesJsonl(series, 250.0);
  EXPECT_EQ(once, TimeSeriesJsonl(series, 250.0));
  EXPECT_NE(once.find("\"window_ms\":250"), std::string::npos);
  // Unknown cadence (0) is representable, for merged offline series.
  EXPECT_NE(TimeSeriesJsonl(series).find("\"window_ms\":0"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pbs
