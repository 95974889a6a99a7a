// Zero-allocation audit of the KVS hot path. This binary links
// pbs_alloc_hook, which replaces global operator new with a counting
// version: after a warmup that fills every pool (op slots, version arena,
// timer-wheel slab, routing scratch vectors, metrics buffers), the
// steady-state read/write path must perform literally zero heap
// allocations. The counter is monotonic (frees are not subtracted), so an
// allocate-per-op pattern cannot hide behind matching deletes.

#include <cstdint>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "dist/production.h"
#include "kvs/cluster.h"
#include "kvs/failure_detector.h"
#include "util/alloc_hook.h"

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

constexpr int kKeys = 32;

// One closed-loop write+read per key, driven through the coordinator
// directly (the client layer's retry wrapper captures per-op state in a
// std::function and is not part of the zero-allocation contract).
// Returns the number of failed operations (must stay 0; asserting inside
// the measured region would allocate on the failure path only).
int RunRound(Cluster* cluster, Node* coordinator) {
  int failures = 0;
  for (int k = 0; k < kKeys; ++k) {
    const Key key = 1 + k;
    VersionedValue versioned;
    versioned.sequence = cluster->NextSequenceFor(key);
    versioned.stamp.timestamp = cluster->sim().now();
    versioned.stamp.writer = coordinator->id();
    versioned.value = "x";  // SSO-sized payload, like the bench workload
    bool committed = false;
    coordinator->CoordinateWrite(key, std::move(versioned),
                                 [&committed](const WriteResult& r) {
                                   committed = r.ok;
                                 });
    cluster->sim().RunUntil(cluster->sim().now() + 150.0);
    bool read_ok = false;
    coordinator->CoordinateRead(key, [&read_ok](const ReadResult& r) {
      read_ok = r.ok;
    });
    cluster->sim().RunUntil(cluster->sim().now() + 150.0);
    if (!committed || !read_ok) ++failures;
  }
  return failures;
}

void ReserveMetrics(ClusterMetrics* metrics, size_t upcoming_ops) {
  metrics->read_latency.Reserve(metrics->read_latency.count() + upcoming_ops);
  metrics->write_latency.Reserve(metrics->write_latency.count() +
                                 upcoming_ops);
  for (auto& [node, shard] : metrics->shards) {
    shard.read_latency.Reserve(shard.read_latency.count() + upcoming_ops);
    shard.write_latency.Reserve(shard.write_latency.count() + upcoming_ops);
  }
}

TEST(AllocTest, SteadyStateReadWritePathIsAllocationFree) {
  KvsConfig config;
  config.quorum = {3, 1, 2};
  config.legs = FastLegs();
  config.num_coordinators = 1;
  config.request_timeout_ms = 100.0;
  config.read_repair = true;  // the repair decision path must not allocate
  config.seed = 7;
  Cluster cluster(config);
  Node& coordinator = cluster.coordinator(0);

  constexpr int kRounds = 8;
  for (int round = 0; round < 2; ++round) {
    ASSERT_EQ(RunRound(&cluster, &coordinator), 0);  // warm every pool
  }
  ReserveMetrics(&cluster.metrics(), 2 * kRounds * kKeys);

  const int64_t before = alloc_hook::AllocationCount();
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    failures += RunRound(&cluster, &coordinator);
  }
  const int64_t allocations = alloc_hook::AllocationCount() - before;
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(allocations, 0)
      << "steady-state coordinator ops hit the allocator " << allocations
      << " times across " << 2 * kRounds * kKeys << " operations";
}

TEST(AllocTest, SloppyQuorumSubstitutionPathIsAllocationFree) {
  // The satellite regression: hint_homes / ExtendedReplicasFor used to
  // build fresh vectors per write. With a suspected replica, every write
  // runs the substitution path (extended preference list, hint targeting,
  // hint storage) — still zero allocations once capacities are warm.
  KvsConfig config;
  config.quorum = {3, 1, 2};
  config.num_storage_nodes = 6;
  config.legs = FastLegs();
  config.num_coordinators = 1;
  config.sloppy_quorums = true;
  config.sloppy_extra = 2;
  config.heartbeat_interval_ms = 10.0;
  config.suspect_timeout_ms = 30.0;
  config.hint_delivery_interval_ms = 20.0;
  config.request_timeout_ms = 100.0;
  config.seed = 11;
  Cluster cluster(config);
  cluster.StartFailureDetector();
  Node& coordinator = cluster.coordinator(0);

  // Warm phase 1: crash a replica, let the detector suspect it, and push
  // enough writes through the substitution path to size the hint buffers.
  cluster.sim().RunUntil(100.0);
  cluster.replica(0).Crash();
  cluster.sim().RunUntil(250.0);
  ASSERT_TRUE(cluster.failure_detector()->IsSuspected(0));
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_EQ(RunRound(&cluster, &coordinator), 0);
  }
  // Drain the parked hints (capacity is retained by the in-place
  // compaction), then re-crash so the measured phase replays the exact
  // warm-path mix: substitution + hint storage + handoff retries.
  cluster.replica(0).Recover();
  cluster.sim().RunUntil(cluster.sim().now() + 500.0);
  EXPECT_EQ(cluster.replica(1).num_hints() + cluster.replica(2).num_hints() +
                cluster.replica(3).num_hints() +
                cluster.replica(4).num_hints() +
                cluster.replica(5).num_hints(),
            0u);
  cluster.replica(0).Crash();
  cluster.sim().RunUntil(cluster.sim().now() + 250.0);
  ASSERT_TRUE(cluster.failure_detector()->IsSuspected(0));
  ReserveMetrics(&cluster.metrics(), 2 * kRounds * kKeys);

  const int64_t before = alloc_hook::AllocationCount();
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    failures += RunRound(&cluster, &coordinator);
  }
  const int64_t allocations = alloc_hook::AllocationCount() - before;
  EXPECT_EQ(failures, 0);
  EXPECT_GT(cluster.metrics().sloppy_substitutions, 0);
  EXPECT_EQ(allocations, 0)
      << "sloppy-quorum steady state hit the allocator " << allocations
      << " times";
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
