// ClientSession::MultiRead: per-key results aligned with the request, the
// empty-list edge, and the Section 6 product rule observed end to end.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "kvs/client.h"
#include "kvs/cluster.h"

namespace pbs {
namespace kvs {
namespace {

WarsDistributions PointMassLegs() {
  WarsDistributions legs;
  legs.name = "pm";
  legs.w = PointMass(1.0);
  legs.a = PointMass(1.0);
  legs.r = PointMass(1.0);
  legs.s = PointMass(1.0);
  return legs;
}

TEST(MultiReadTest, ReturnsPerKeyResultsAligned) {
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = PointMassLegs();
  config.request_timeout_ms = 50.0;
  Cluster cluster(config);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  client.Write(10, "ten", nullptr);
  client.Write(20, "twenty", nullptr);
  cluster.sim().Run();

  std::optional<ClientSession::MultiReadResult> result;
  client.MultiRead({10, 20, 30}, [&](const auto& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  ASSERT_EQ(result->results.size(), 3u);
  EXPECT_EQ(result->results[0].value->value, "ten");
  EXPECT_EQ(result->results[1].value->value, "twenty");
  EXPECT_FALSE(result->results[2].value.has_value());  // never written
  EXPECT_DOUBLE_EQ(result->latency_ms, 2.0);  // parallel, not serial
}

TEST(MultiReadTest, EmptyKeyListCompletesImmediately) {
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = PointMassLegs();
  Cluster cluster(config);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  bool called = false;
  client.MultiRead({}, [&](const auto& r) {
    called = true;
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.results.empty());
  });
  EXPECT_TRUE(called);
}

TEST(MultiReadTest, AllFreshProbabilityDecaysWithWidth) {
  // The Section 6 product rule, observed end-to-end: the probability that
  // EVERY key of a multi-key probe is fresh decays with the key count.
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = MakeWars("slow", Exponential(0.1), Exponential(1.0));
  config.request_timeout_ms = 1000.0;
  config.seed = 77;
  Cluster cluster(config);
  ClientSession writer(&cluster, cluster.coordinator(0).id(), 1);
  ClientSession reader(&cluster, cluster.coordinator(0).id(), 2);

  auto measure = [&](const std::vector<Key>& keys) {
    int64_t probes = 0;
    int64_t all_fresh = 0;
    const double start = cluster.sim().now();
    struct Round {
      std::vector<int64_t> expected;
      size_t written = 0;
    };
    for (int i = 0; i < 2500; ++i) {
      cluster.sim().At(start + i * 300.0, [&, keys]() {
        auto round = std::make_shared<Round>();
        round->expected.resize(keys.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          round->expected[k] = cluster.LatestSequenceFor(keys[k]) + 1;
          writer.Write(keys[k], "v", [&, keys, round](const WriteResult& w) {
            if (!w.ok) return;
            if (++round->written < keys.size()) return;
            // All writes committed: probe immediately.
            reader.MultiRead(keys, [&, keys, round](const auto& r) {
              if (!r.ok) return;
              ++probes;
              bool fresh = true;
              for (size_t j = 0; j < keys.size(); ++j) {
                const auto& value = r.results[j].value;
                fresh = fresh && value.has_value() &&
                        value->sequence >= round->expected[j];
              }
              if (fresh) ++all_fresh;
            });
          });
        }
      });
    }
    cluster.sim().Run();
    return static_cast<double>(all_fresh) / static_cast<double>(probes);
  };

  const double one_key = measure({101});
  const double four_keys = measure({201, 202, 203, 204});
  EXPECT_LT(four_keys, one_key - 0.1);
  EXPECT_GT(one_key, 0.2);
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
