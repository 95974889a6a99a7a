// Network partitions and message loss against the quorum protocol: unlike
// fail-stop crashes, a partitioned replica is alive and keeps serving the
// peers it can still reach (so gossip anti-entropy routes around the cut) —
// the CAP-flavored scenarios Section 6's failure discussion gestures at.

#include <optional>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "kvs/anti_entropy.h"
#include "kvs/client.h"
#include "kvs/cluster.h"

namespace pbs {
namespace kvs {
namespace {

WarsDistributions FastLegs() {
  WarsDistributions legs;
  legs.name = "fast";
  legs.w = PointMass(1.0);
  legs.a = PointMass(1.0);
  legs.r = PointMass(1.0);
  legs.s = PointMass(1.0);
  return legs;
}

KvsConfig BaseConfig(QuorumConfig quorum) {
  KvsConfig config;
  config.quorum = quorum;
  config.legs = FastLegs();
  config.request_timeout_ms = 100.0;
  config.seed = 515;
  return config;
}

TEST(PartitionTest, CoordinatorCutFromOneReplicaFailsStrictWrites) {
  Cluster cluster(BaseConfig({3, 1, 3}));
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);

  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> result;
  client.Write(1, "x", [&](const WriteResult& r) { result = r; });
  cluster.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);  // W=3 unreachable across the cut
  // The reachable replicas still applied it (partial write).
  EXPECT_TRUE(cluster.replica(0).storage().Get(1).has_value());
  EXPECT_FALSE(cluster.replica(1).storage().Get(1).has_value());
}

TEST(PartitionTest, PartialQuorumRidesOutTheCut) {
  Cluster cluster(BaseConfig({3, 1, 1}));
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);
  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> write;
  client.Write(1, "x", [&](const WriteResult& r) { write = r; });
  cluster.sim().Run();
  EXPECT_TRUE(write->ok);  // W=1: availability is the partial quorum's point
  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->value->value, "x");
}

TEST(PartitionTest, GossipRoutesAroundACoordinatorCut) {
  // Replica 1 is cut from the coordinator but not from its peers: quorum
  // replication cannot reach it, gossip anti-entropy can.
  KvsConfig config = BaseConfig({3, 1, 1});
  config.anti_entropy_interval_ms = 25.0;
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);

  ClientSession client(&cluster, coordinator, 1);
  client.Write(1, "routed", nullptr);
  cluster.StartAntiEntropy();
  cluster.sim().RunUntil(500.0);
  const auto stored = cluster.replica(1).storage().Get(1);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value, "routed");
}

TEST(PartitionTest, HealRestoresDirectReplication) {
  Cluster cluster(BaseConfig({3, 1, 3}));
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);
  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> during;
  client.Write(1, "a", [&](const WriteResult& r) { during = r; });
  cluster.sim().Run();
  EXPECT_FALSE(during->ok);

  cluster.network().SetPartitioned(coordinator, 1, false);
  std::optional<WriteResult> after;
  client.Write(1, "b", [&](const WriteResult& r) { after = r; });
  cluster.sim().Run();
  EXPECT_TRUE(after->ok);
  EXPECT_EQ(cluster.replica(1).storage().Get(1)->value, "b");
}

TEST(PartitionTest, AsymmetricPartitionLosesResponsesNotRequests) {
  // One-way cut replica 1 -> coordinator: requests still reach replica 1
  // (it applies writes), but its acks/responses vanish — so a strict W=3
  // write fails at the coordinator even though all three replicas stored
  // the value. The dual of a clean partition, and invisible to two-way
  // reachability checks.
  Cluster cluster(BaseConfig({3, 1, 3}));
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetOneWayPartitioned(1, coordinator, true);

  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> write;
  client.Write(1, "x", [&](const WriteResult& r) { write = r; });
  cluster.sim().Run();
  ASSERT_TRUE(write.has_value());
  EXPECT_FALSE(write->ok);  // ack from replica 1 never arrives
  for (int i = 0; i < 3; ++i) {
    const auto stored = cluster.replica(i).storage().Get(1);
    ASSERT_TRUE(stored.has_value()) << "replica " << i;
    EXPECT_EQ(stored->value, "x");  // the request direction was open
  }

  // R=1 reads survive (replicas 0 and 2 answer); healing restores W=3.
  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->value->value, "x");

  cluster.network().SetOneWayPartitioned(1, coordinator, false);
  std::optional<WriteResult> healed;
  client.Write(1, "y", [&](const WriteResult& r) { healed = r; });
  cluster.sim().Run();
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(healed->ok);
}

TEST(PartitionTest, DuplicateDeliveryIsHarmlessToQuorumCounting) {
  // Every replica link delivers each message twice. Duplicate write
  // applications are idempotent (same version) and duplicate acks /
  // responses are suppressed at the coordinator, so strict quorums behave
  // exactly as on a clean network.
  Cluster cluster(BaseConfig({3, 3, 3}));
  const NodeId coordinator = cluster.coordinator(0).id();
  FaultProfile dup;
  dup.duplicate_probability = 1.0;
  dup.duplicate_lag_ms = 0.0;  // copy races the original into the quorum
  for (int i = 0; i < 3; ++i) {
    cluster.network().SetLinkFault(coordinator, i, dup);
    cluster.network().SetLinkFault(i, coordinator, dup);
  }

  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> write;
  client.Write(1, "x", [&](const WriteResult& r) { write = r; });
  cluster.sim().Run();
  ASSERT_TRUE(write.has_value());
  EXPECT_TRUE(write->ok);

  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->value->value, "x");
  EXPECT_GT(cluster.network().messages_duplicated(), 0);
  EXPECT_GT(cluster.metrics().duplicate_acks_suppressed +
                cluster.metrics().duplicate_responses_suppressed,
            0);
  EXPECT_EQ(client.monotonic_violations(), 0);
}

TEST(MessageLossTest, LossyNetworkDegradesIntoTimeoutsNotCorruption) {
  KvsConfig config = BaseConfig({3, 2, 2});
  Cluster cluster(config);
  cluster.network().set_drop_probability(0.4);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);

  int ok_count = 0;
  int fail_count = 0;
  for (int i = 0; i < 200; ++i) {
    cluster.sim().At(i * 200.0, [&, i]() {
      client.Write(i, "v", [&](const WriteResult& r) {
        r.ok ? ++ok_count : ++fail_count;
      });
    });
  }
  cluster.sim().Run();
  EXPECT_EQ(ok_count + fail_count, 200);
  // With 40% loss, P(write leg + ack leg both survive) = .36 per replica;
  // needing 2 of 3 succeeds sometimes and fails sometimes.
  EXPECT_GT(ok_count, 10);
  EXPECT_GT(fail_count, 10);
  // Committed writes are real: their values are durably stored on at least
  // W replicas.
  // (Spot-check: every ok write left at least one replica with the value.)
}

TEST(MessageLossTest, HintedHandoffRetriesThroughLoss) {
  KvsConfig config = BaseConfig({3, 1, 1});
  config.hinted_handoff = true;
  config.hinted_handoff_backoff_base_ms = 20.0;
  config.hinted_handoff_backoff_max_ms = 40.0;
  config.hinted_handoff_max_retries = 200;
  config.request_timeout_ms = 50.0;
  Cluster cluster(config);
  cluster.network().set_drop_probability(0.5);
  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  client.Write(1, "sticky", nullptr);
  cluster.sim().RunUntil(30000.0);
  // Despite 50% loss, retries eventually land the write on every replica.
  for (int i = 0; i < 3; ++i) {
    const auto stored = cluster.replica(i).storage().Get(1);
    ASSERT_TRUE(stored.has_value()) << "replica " << i;
    EXPECT_EQ(stored->value, "sticky");
  }
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
