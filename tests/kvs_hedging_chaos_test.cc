// Coordinator hedged reads, response deduplication, and the client-side
// retry/deadline/downgrade machinery — exercised under injected gray
// failures (slow nodes, duplicating links, partitions) rather than clean
// fail-stop crashes.

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "kvs/client.h"
#include "kvs/cluster.h"
#include "kvs/failure.h"

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
  config.seed = 808;
  return config;
}

TEST(HedgedReadTest, HedgeRescuesReadsFromASlowReplica) {
  // Replica 0's responses take 50x as long. Under kQuorumOnly fan-out a
  // read whose R-subset includes replica 0 stalls on it — unless a hedge
  // re-issues to an untried preference-list replica.
  KvsConfig config = BaseConfig({3, 2, 2});
  config.read_fanout = ReadFanout::kQuorumOnly;
  config.request_timeout_ms = 1000.0;
  config.hedge.enabled = true;
  config.hedge.delay_ms = 5.0;
  Cluster cluster(config);
  FaultProfile slow;
  slow.delay_mult = 50.0;
  cluster.network().SetNodeFault(0, slow);

  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  client.Write(1, "v", nullptr);
  std::vector<double> latencies;
  for (int i = 0; i < 40; ++i) {
    cluster.sim().At(100.0 + i * 100.0, [&]() {
      client.Read(1, [&](const ReadResult& r) {
        ASSERT_TRUE(r.ok);
        EXPECT_EQ(r.value->value, "v");
        latencies.push_back(r.latency_ms);
      });
    });
  }
  cluster.sim().Run();
  ASSERT_EQ(latencies.size(), 40u);
  // Every read finished fast: the hedge fires at 5ms and an untried fast
  // replica answers ~2ms later, well before replica 0's ~50ms response.
  for (double latency : latencies) EXPECT_LT(latency, 20.0);
  EXPECT_GT(cluster.metrics().hedged_reads_sent, 0);
  EXPECT_GT(cluster.metrics().hedged_reads_won, 0);
  EXPECT_EQ(client.monotonic_violations(), 0);
}

TEST(HedgedReadTest, WithoutHedgingSlowReplicaDominatesTheTail) {
  // Control for the test above: same fault, hedging off, some reads stall.
  KvsConfig config = BaseConfig({3, 2, 2});
  config.read_fanout = ReadFanout::kQuorumOnly;
  config.request_timeout_ms = 1000.0;
  Cluster cluster(config);
  FaultProfile slow;
  slow.delay_mult = 50.0;
  cluster.network().SetNodeFault(0, slow);

  ClientSession client(&cluster, cluster.coordinator(0).id(), 1);
  client.Write(1, "v", nullptr);
  double worst = 0.0;
  for (int i = 0; i < 40; ++i) {
    cluster.sim().At(100.0 + i * 100.0, [&]() {
      client.Read(1, [&](const ReadResult& r) {
        ASSERT_TRUE(r.ok);
        worst = std::max(worst, r.latency_ms);
      });
    });
  }
  cluster.sim().Run();
  EXPECT_GT(worst, 40.0);  // some R-subset drew the slow replica
  EXPECT_EQ(cluster.metrics().hedged_reads_sent, 0);
}

TEST(DeduplicationTest, DuplicatedResponsesNeverDoubleCountTowardR) {
  // Replica 0's responses are always delivered twice, and replicas 1 and 2
  // are unreachable. If duplicates counted toward R, the read would
  // (wrongly) succeed off one replica heard twice; with dedup it times out.
  KvsConfig config = BaseConfig({3, 2, 2});
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  ClientSession client(&cluster, coordinator, 1);
  client.Write(1, "v", nullptr);
  cluster.sim().Run();

  FaultProfile dup;
  dup.duplicate_probability = 1.0;
  cluster.network().SetLinkFault(0, coordinator, dup);
  cluster.network().SetPartitioned(coordinator, 1, true);
  cluster.network().SetPartitioned(coordinator, 2, true);

  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->ok);  // one distinct replica != R=2
  EXPECT_GT(cluster.metrics().duplicate_responses_suppressed, 0);
}

TEST(DeduplicationTest, DuplicatedAcksNeverDoubleCountTowardW) {
  KvsConfig config = BaseConfig({3, 2, 2});
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  FaultProfile dup;
  dup.duplicate_probability = 1.0;
  cluster.network().SetLinkFault(0, coordinator, dup);
  cluster.network().SetPartitioned(coordinator, 1, true);
  cluster.network().SetPartitioned(coordinator, 2, true);

  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> write;
  client.Write(1, "v", [&](const WriteResult& r) { write = r; });
  cluster.sim().Run();
  ASSERT_TRUE(write.has_value());
  EXPECT_FALSE(write->ok);  // one distinct ack != W=2
  EXPECT_GT(cluster.metrics().duplicate_acks_suppressed, 0);
}

TEST(ClientRetryTest, RetrySucceedsAfterTransientPartition) {
  KvsConfig config = BaseConfig({3, 1, 3});
  config.retry.max_attempts = 4;
  config.retry.backoff_base_ms = 100.0;
  config.retry.backoff_max_ms = 400.0;
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);
  // Heal after the first attempt's timeout (100ms) but before the earliest
  // possible retry (100 + backoff in [50, 100)).
  cluster.sim().At(140.0, [&]() {
    cluster.network().SetPartitioned(coordinator, 1, false);
  });

  ClientSession client(&cluster, coordinator, 1);
  std::optional<WriteResult> write;
  client.Write(1, "v", [&](const WriteResult& r) { write = r; });
  cluster.sim().Run();
  ASSERT_TRUE(write.has_value());
  EXPECT_TRUE(write->ok);
  EXPECT_EQ(write->attempts, 2);
  EXPECT_EQ(cluster.metrics().client_write_retries, 1);
  // Client-visible latency spans both attempts, not just the winner.
  EXPECT_GT(write->latency_ms, 100.0);
}

TEST(ClientRetryTest, DeadlineBudgetBoundsTheRetryLoop) {
  KvsConfig config = BaseConfig({3, 2, 2});
  config.retry.max_attempts = 10;
  config.retry.backoff_base_ms = 10.0;
  config.retry.deadline_ms = 120.0;
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  cluster.network().SetPartitioned(coordinator, 1, true);
  cluster.network().SetPartitioned(coordinator, 2, true);

  ClientSession client(&cluster, coordinator, 1);
  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->ok);
  EXPECT_GE(read->attempts, 2);       // it did retry...
  EXPECT_LT(read->attempts, 10);      // ...but the deadline cut it short
  EXPECT_LE(read->latency_ms, 130.0); // spent roughly the budget, not 10x
  EXPECT_EQ(cluster.metrics().client_deadline_misses, 1);
  EXPECT_GT(cluster.metrics().client_read_retries, 0);
}

TEST(ClientRetryTest, DowngradeOnRetryTradesConsistencyForAvailability) {
  KvsConfig config = BaseConfig({3, 2, 2});
  config.retry.max_attempts = 3;
  config.retry.backoff_base_ms = 10.0;
  config.retry.downgrade_reads = true;
  Cluster cluster(config);
  const NodeId coordinator = cluster.coordinator(0).id();
  ClientSession client(&cluster, coordinator, 1);
  client.Write(1, "v", nullptr);
  cluster.sim().Run();

  // Only replica 0 stays reachable: R=2 cannot be met, R=1 can.
  cluster.network().SetPartitioned(coordinator, 1, true);
  cluster.network().SetPartitioned(coordinator, 2, true);
  std::optional<ReadResult> read;
  client.Read(1, [&](const ReadResult& r) { read = r; });
  cluster.sim().Run();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_TRUE(read->downgraded);
  EXPECT_EQ(read->required, 1);
  EXPECT_EQ(read->attempts, 2);
  EXPECT_EQ(read->value->value, "v");
  EXPECT_EQ(cluster.metrics().consistency_downgrades, 1);
  // Downgraded reads still count toward monotonic-reads accounting (none
  // violated here: replica 0 has the latest version).
  EXPECT_EQ(client.monotonic_violations(), 0);
}

TEST(FaultScheduleTest, InstallationActivatesAndDeactivatesFaults) {
  KvsConfig config = BaseConfig({3, 2, 2});
  Cluster cluster(config);
  FaultSchedule schedule;
  schedule.AddSlowNode(10.0, 100.0, 0, 10.0);
  schedule.AddLossyLink(10.0, 100.0, 1, 3, 0.1, 0.3, 0.8);
  schedule.AddFlappingNode(10.0, 100.0, 2, 20.0, 20.0);
  schedule.AddAsymmetricPartition(10.0, 100.0, 1, 3);
  schedule.InstallOn(&cluster);

  cluster.sim().RunUntil(50.0);
  EXPECT_EQ(cluster.metrics().fault_slow_node_activations, 1);
  EXPECT_EQ(cluster.metrics().fault_lossy_link_activations, 1);
  EXPECT_EQ(cluster.metrics().fault_flapping_activations, 1);
  EXPECT_EQ(cluster.metrics().fault_asymmetric_partition_activations, 1);
  EXPECT_TRUE(cluster.network().IsOneWayPartitioned(1, 3));

  cluster.sim().RunUntil(200.0);
  // Every fault cleans up at its end time.
  EXPECT_FALSE(cluster.network().IsOneWayPartitioned(1, 3));
  EXPECT_TRUE(cluster.replica(2).alive());  // flapping leaves the node up
}

TEST(FaultScheduleTest, RandomGrayFailuresAreSeedDeterministic) {
  const auto a = FaultSchedule::RandomGrayFailures(5, 60000.0, 2000.0, 800.0,
                                                  /*seed=*/77);
  const auto b = FaultSchedule::RandomGrayFailures(5, 60000.0, 2000.0, 800.0,
                                                  /*seed=*/77);
  ASSERT_EQ(a.faults().size(), b.faults().size());
  EXPECT_GT(a.faults().size(), 5u);  // ~30 arrivals over the horizon
  for (size_t i = 0; i < a.faults().size(); ++i) {
    const Fault& fa = a.faults()[i];
    const Fault& fb = b.faults()[i];
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.start, fb.start);
    EXPECT_EQ(fa.end, fb.end);
    EXPECT_EQ(fa.node, fb.node);
    EXPECT_EQ(fa.src, fb.src);
    EXPECT_EQ(fa.dst, fb.dst);
    EXPECT_LT(fa.start, 60000.0);
    EXPECT_GT(fa.end, fa.start);
  }
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
