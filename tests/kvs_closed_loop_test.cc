// End-to-end closed control loop (the paper's Section 6 vision): profile
// WARS legs online from the running cluster, feed them to the §6 optimizer
// (SlaOptimizer + Repick), and apply its recommendation back to the live
// cluster — measure online, predict, reconfigure.

#include <cstdint>
#include <optional>

#include <gtest/gtest.h>

#include "core/sla.h"
#include "dist/primitives.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/profiler.h"

namespace pbs {
namespace kvs {
namespace {

WarsDistributions PointMassLegs(double ms) {
  WarsDistributions legs;
  legs.name = "pm";
  legs.w = PointMass(ms);
  legs.a = PointMass(ms);
  legs.r = PointMass(ms);
  legs.s = PointMass(ms);
  return legs;
}

TEST(LiveReconfigurationTest, UpdateQuorumValidates) {
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = PointMassLegs(1.0);
  Cluster cluster(config);
  EXPECT_TRUE(cluster.UpdateQuorum(2, 2).ok());
  EXPECT_EQ(cluster.config().quorum, (QuorumConfig{3, 2, 2}));
  EXPECT_FALSE(cluster.UpdateQuorum(4, 1).ok());  // R > N
  EXPECT_FALSE(cluster.UpdateQuorum(1, 0).ok());  // W < 1
  EXPECT_EQ(cluster.config().quorum, (QuorumConfig{3, 2, 2}));
}

TEST(LiveReconfigurationTest, InFlightOperationsKeepTheirQuorum) {
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = PointMassLegs(1.0);
  config.request_timeout_ms = 50.0;
  Cluster cluster(config);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);

  // Read launched under R=1 (responses land at t=2), reconfigured to R=3
  // at t=0.5: the in-flight read must still return after one response.
  std::optional<ReadResult> result;
  client.Read(1, [&](const ReadResult& r) { result = r; });
  cluster.sim().Schedule(0.5, [&]() {
    ASSERT_TRUE(cluster.UpdateQuorum(3, 3).ok());
  });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok);
  EXPECT_DOUBLE_EQ(result->latency_ms, 2.0);

  // The next read runs under the new R=3 (same point-mass legs: latency
  // still 2.0 but it now waits for all three responses — verify via a
  // crashed replica, which must now stall the read into the timeout).
  cluster.replica(0).Crash();
  std::optional<ReadResult> strict_read;
  client.Read(1, [&](const ReadResult& r) { strict_read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(strict_read.has_value());
  EXPECT_FALSE(strict_read->ok);  // R=3 unreachable with a dead replica
}

TEST(LiveReconfigurationTest, UpdateLegsTakesEffectImmediately) {
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = PointMassLegs(1.0);
  Cluster cluster(config);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);

  std::optional<WriteResult> fast;
  client.Write(1, "a", [&](const WriteResult& r) { fast = r; });
  cluster.sim().Run();
  EXPECT_DOUBLE_EQ(fast->latency_ms, 2.0);

  cluster.UpdateLegs(PointMassLegs(5.0));
  std::optional<WriteResult> slow;
  client.Write(1, "b", [&](const WriteResult& r) { slow = r; });
  cluster.sim().Run();
  EXPECT_DOUBLE_EQ(slow->latency_ms, 10.0);
}

TEST(ClosedLoopTest, ProfileRecommendApplyAcrossRegimeShift) {
  // Phase 1: SSD-era legs; the profiled model keeps R=W=1 under a
  // 10 ms @ 99.9% SLA. Phase 2: the environment degrades to slow
  // heavy-tailed writes; profiling again, the controller reconfigures the
  // live cluster, restoring the SLA (verified by probing staleness).
  KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = LnkdSsd();
  config.request_timeout_ms = 5000.0;
  config.num_coordinators = 2;
  config.seed = 4242;
  Cluster cluster(config);
  ClientSession writer(&cluster, cluster.coordinator(0).id(), 1);
  ClientSession reader(&cluster, cluster.coordinator(1).id(), 2);

  // The Section 6 re-pick: score the (R, W) lattice for N=3 under the
  // profiled model, seeded per epoch, and keep the incumbent under
  // hysteresis.
  SlaConstraints sla;
  sla.min_n = 3;
  sla.max_n = 3;
  sla.consistency_probability = 0.999;
  sla.max_t_visibility_ms = 10.0;
  uint64_t epoch = 0;
  const auto repick = [&](const QuorumConfig& incumbent,
                          const ReplicaLatencyModelPtr& model) {
    ++epoch;
    const SlaOptimizer optimizer([&model](int) { return model; },
                                 /*trials_per_config=*/20000,
                                 /*seed=*/1 + epoch * 1000003ULL);
    return Repick(incumbent, optimizer.EnumerateAll(sla, {}).value());
  };

  auto run_phase = [&](int ops, double spacing) {
    LegProfiler profiler;
    cluster.set_leg_profiler(&profiler);
    const double start = cluster.sim().now();
    for (int i = 0; i < ops; ++i) {
      cluster.sim().At(start + i * spacing, [&]() {
        writer.Write(1, "v", nullptr);
        reader.Read(1, nullptr);
      });
    }
    cluster.sim().RunUntil(start + ops * spacing + 10000.0);
    cluster.set_leg_profiler(nullptr);
    return profiler.ToWarsDistributions("profiled");
  };

  // Phase 1 (SSD): profile, recommend, apply.
  const auto ssd_profile = run_phase(3000, 20.0);
  ASSERT_TRUE(ssd_profile.ok());
  SlaCandidate picked =
      repick(config.quorum, MakeIidModel(ssd_profile.value(), 3));
  QuorumConfig chosen = picked.config;
  ASSERT_TRUE(cluster.UpdateQuorum(chosen.r, chosen.w).ok());
  EXPECT_EQ(chosen, (QuorumConfig{3, 1, 1}));
  EXPECT_TRUE(picked.feasible);

  // Regime shift: writes now heavy-tailed (mean 20 ms).
  cluster.UpdateLegs(
      MakeWars("slow", Exponential(0.05), Exponential(1.0)));

  // Phase 2: profile the degraded legs, recommend, apply.
  const auto slow_profile = run_phase(3000, 100.0);
  ASSERT_TRUE(slow_profile.ok());
  picked = repick(chosen, MakeIidModel(slow_profile.value(), 3));
  EXPECT_FALSE(picked.config == chosen);  // switched
  chosen = picked.config;
  ASSERT_TRUE(cluster.UpdateQuorum(chosen.r, chosen.w).ok());
  EXPECT_TRUE(picked.feasible)
      << "controller failed to restore the SLA from profiled legs";

  // Verify on the live cluster: probe reads immediately after each commit
  // under the new configuration are (nearly) always fresh.
  int64_t probes = 0;
  int64_t fresh = 0;
  const double start = cluster.sim().now();
  for (int i = 0; i < 800; ++i) {
    cluster.sim().At(start + i * 200.0, [&]() {
      const int64_t expected = cluster.LatestSequenceFor(1) + 1;
      writer.Write(1, "p", [&, expected](const WriteResult& w) {
        if (!w.ok) return;
        reader.Read(1, [&, expected](const ReadResult& r) {
          if (!r.ok) return;
          ++probes;
          if (r.value.has_value() && r.value->sequence >= expected) ++fresh;
        });
      });
    });
  }
  cluster.sim().RunUntil(start + 800 * 200.0 + 20000.0);
  ASSERT_GT(probes, 700);
  const double p_fresh =
      static_cast<double>(fresh) / static_cast<double>(probes);
  EXPECT_GT(p_fresh, 0.99) << "post-reconfiguration staleness too high";
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
