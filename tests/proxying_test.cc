// Section 4.2 "Proxying operations": a coordinator that is itself a replica
// serves its own leg locally. Covers the WARS LocalCoordinator model and
// the KVS local fast path.

#include <optional>

#include <gtest/gtest.h>

#include "core/tvisibility.h"
#include "core/wars.h"
#include "dist/primitives.h"
#include "dist/production.h"
#include "kvs/client.h"
#include "kvs/cluster.h"

namespace pbs {
namespace {

TEST(LocalCoordinatorModelTest, LocalReplicaHasZeroLegs) {
  WarsDistributions base;
  base.name = "pm";
  base.w = PointMass(5.0);
  base.a = PointMass(5.0);
  base.r = PointMass(5.0);
  base.s = PointMass(5.0);
  const auto model =
      MakeLocalCoordinatorModel(base, 3, /*same_coordinator=*/true);
  Rng rng(1);
  const int n = 3;
  std::vector<double> legs(4 * n);  // leg-major: w | a | r | s
  for (int trial = 0; trial < 500; ++trial) {
    model->SampleTrialSoA(rng, legs.data());
    int local = 0;
    for (int i = 0; i < n; ++i) {
      if (legs[i] == 0.0) {
        ++local;
        // Same coordinator: the local replica is local for all four legs.
        EXPECT_EQ(legs[n + i], 0.0);
        EXPECT_EQ(legs[2 * n + i], 0.0);
        EXPECT_EQ(legs[3 * n + i], 0.0);
      } else {
        EXPECT_EQ(legs[i], 5.0);
      }
    }
    EXPECT_EQ(local, 1);
  }
}

TEST(LocalCoordinatorModelTest, SameCoordinatorGivesReadYourWrites) {
  // W=1 commits via the coordinator's own replica instantly; a same-
  // coordinator read's first responder is that same replica: R=W=1 becomes
  // always-consistent (the session-locality effect the paper's client-side
  // discussion hints at).
  const auto model = MakeLocalCoordinatorModel(LnkdDisk(), 3,
                                               /*same_coordinator=*/true);
  const auto curve =
      EstimateTVisibility({3, 1, 1}, model, 100000, /*seed=*/2);
  EXPECT_DOUBLE_EQ(curve.ProbConsistent(0.0), 1.0);
}

TEST(LocalCoordinatorModelTest, IndependentCoordinatorWorseThanProxying) {
  // With R=W=1 and zero-cost local legs, the write commits instantly
  // (wt = 0: no ack round trip to shelter propagation) and the read's
  // first responder is always the read coordinator's own replica (zero
  // round trip). So P(consistent, t=0) collapses to exactly 1/N — the
  // probability the reader IS the writer's replica. Proxying through a
  // front-end does better (43.9% for LNKD-DISK): the coordinator round
  // trips are propagation headstart. This is the quantitative form of
  // Section 4.2's "a read or write to R nodes behaves like R-1".
  const auto model = MakeLocalCoordinatorModel(LnkdDisk(), 3,
                                               /*same_coordinator=*/false);
  const auto curve =
      EstimateTVisibility({3, 1, 1}, model, 200000, /*seed=*/3);
  const double p0 = curve.ProbConsistent(0.0);
  EXPECT_NEAR(p0, 1.0 / 3.0, 0.01);
  const auto proxied = EstimateTVisibility(
      {3, 1, 1}, MakeIidModel(LnkdDisk(), 3), 200000, /*seed=*/4);
  EXPECT_LT(p0, proxied.ProbConsistent(0.0));
}

TEST(KvsProxyingTest, ReplicaCoordinatorServesItselfInstantly) {
  WarsDistributions legs;
  legs.name = "pm";
  legs.w = PointMass(5.0);
  legs.a = PointMass(5.0);
  legs.r = PointMass(5.0);
  legs.s = PointMass(5.0);
  kvs::KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = legs;
  config.request_timeout_ms = 100.0;
  kvs::Cluster cluster(config);
  // Session coordinated by replica 0 itself (not a dedicated proxy).
  kvs::ClientSession client(&cluster, cluster.replica(0).id(), 1);

  std::optional<kvs::WriteResult> write;
  client.Write(1, "v", [&](const kvs::WriteResult& r) { write = r; });
  cluster.sim().Run();
  ASSERT_TRUE(write.has_value());
  // W=1 satisfied by the local replica: latency 0, not 10.
  EXPECT_DOUBLE_EQ(write->latency_ms, 0.0);
  EXPECT_TRUE(cluster.replica(0).storage().Get(1).has_value());

  std::optional<kvs::ReadResult> read;
  client.Read(1, [&](const kvs::ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_DOUBLE_EQ(read->latency_ms, 0.0);  // local read-your-write
  ASSERT_TRUE(read->value.has_value());
  EXPECT_EQ(read->value->value, "v");
}

TEST(KvsProxyingTest, DedicatedProxyStillPaysFullLegs) {
  WarsDistributions legs;
  legs.name = "pm";
  legs.w = PointMass(5.0);
  legs.a = PointMass(5.0);
  legs.r = PointMass(5.0);
  legs.s = PointMass(5.0);
  kvs::KvsConfig config;
  config.quorum = {3, 1, 1};
  config.legs = legs;
  config.request_timeout_ms = 100.0;
  kvs::Cluster cluster(config);
  kvs::ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  std::optional<kvs::WriteResult> write;
  client.Write(1, "v", [&](const kvs::WriteResult& r) { write = r; });
  cluster.sim().Run();
  EXPECT_DOUBLE_EQ(write->latency_ms, 10.0);  // w + a
}

}  // namespace
}  // namespace pbs
