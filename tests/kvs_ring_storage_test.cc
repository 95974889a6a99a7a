#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "kvs/ring.h"
#include "kvs/storage.h"

namespace pbs {
namespace kvs {
namespace {

TEST(RingTest, PreferenceListSizeAndDistinctness) {
  ConsistentHashRing ring(5, 16, /*seed=*/1);
  for (Key key = 0; key < 200; ++key) {
    const auto list = ring.PreferenceList(key, 3);
    ASSERT_TRUE(list.ok());
    EXPECT_EQ(list.value().size(), 3u);
    const std::set<int> unique(list.value().begin(), list.value().end());
    EXPECT_EQ(unique.size(), 3u);
    for (int node : list.value()) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 5);
    }
  }
}

TEST(RingTest, FullMembershipWhenNEqualsClusterSize) {
  ConsistentHashRing ring(3, 8, /*seed=*/2);
  const auto list = ring.PreferenceList(12345, 3);
  ASSERT_TRUE(list.ok());
  std::set<int> unique(list.value().begin(), list.value().end());
  EXPECT_EQ(unique, (std::set<int>{0, 1, 2}));
}

TEST(RingTest, DeterministicPlacement) {
  ConsistentHashRing a(5, 16, /*seed=*/3);
  ConsistentHashRing b(5, 16, /*seed=*/3);
  for (Key key = 0; key < 100; ++key) {
    EXPECT_EQ(a.PreferenceList(key, 3).value(), b.PreferenceList(key, 3).value());
  }
}

TEST(RingTest, DifferentKeysLandOnDifferentPrimaries) {
  ConsistentHashRing ring(10, 32, /*seed=*/4);
  std::set<int> primaries;
  for (Key key = 0; key < 100; ++key) {
    primaries.insert(ring.PreferenceList(key, 1).value().front());
  }
  EXPECT_GT(primaries.size(), 5u);
}

TEST(RingTest, OwnershipRoughlyBalancedWithManyVnodes) {
  ConsistentHashRing ring(4, 256, /*seed=*/5);
  const auto fractions = ring.OwnershipFractions(100000, /*seed=*/6);
  ASSERT_TRUE(fractions.ok());
  double total = 0.0;
  for (double f : fractions.value()) {
    EXPECT_NEAR(f, 0.25, 0.08);
    total += f;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RingTest, HashKeyAvalanches) {
  // Adjacent keys map to distant hash positions.
  EXPECT_NE(HashKey(0), HashKey(1));
  EXPECT_NE(HashKey(1) - HashKey(0), HashKey(2) - HashKey(1));
}

TEST(StorageTest, PutThenGetRoundTrip) {
  ReplicaStorage storage;
  VersionedValue value;
  value.sequence = 1;
  value.stamp = {1.0, 0};
  value.value = "hello";
  EXPECT_TRUE(storage.Put(7, value));
  const auto got = storage.Get(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "hello");
  EXPECT_EQ(got->sequence, 1);
  EXPECT_EQ(storage.num_keys(), 1u);
}

TEST(StorageTest, MissingKeyIsNullopt) {
  ReplicaStorage storage;
  EXPECT_FALSE(storage.Get(99).has_value());
}

TEST(StorageTest, NewerVersionSupersedes) {
  ReplicaStorage storage;
  VersionedValue v1;
  v1.sequence = 1;
  v1.stamp = {1.0, 0};
  VersionedValue v2;
  v2.sequence = 2;
  v2.stamp = {2.0, 0};
  EXPECT_TRUE(storage.Put(1, v1));
  EXPECT_TRUE(storage.Put(1, v2));
  EXPECT_EQ(storage.Get(1)->sequence, 2);
  EXPECT_EQ(storage.writes_applied(), 2);
}

TEST(StorageTest, OlderVersionIgnoredRegardlessOfArrivalOrder) {
  // The convergence property quorum expansion relies on: replaying the same
  // messages in any order yields the same final state.
  ReplicaStorage in_order;
  ReplicaStorage reversed;
  VersionedValue v1;
  v1.sequence = 1;
  v1.stamp = {1.0, 0};
  VersionedValue v2;
  v2.sequence = 2;
  v2.stamp = {2.0, 0};
  in_order.Put(1, v1);
  in_order.Put(1, v2);
  reversed.Put(1, v2);
  EXPECT_FALSE(reversed.Put(1, v1));  // stale write rejected
  EXPECT_EQ(in_order.Get(1)->sequence, reversed.Get(1)->sequence);
}

TEST(StorageTest, ForEachVisitsEverything) {
  ReplicaStorage storage;
  for (Key key = 0; key < 10; ++key) {
    VersionedValue value;
    value.sequence = static_cast<int64_t>(key);
    value.stamp = {static_cast<double>(key), 0};
    storage.Put(key, value);
  }
  int visited = 0;
  storage.ForEach([&](Key, const VersionedValue&) { ++visited; });
  EXPECT_EQ(visited, 10);
}

}  // namespace
}  // namespace kvs
}  // namespace pbs
