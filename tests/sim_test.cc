#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/primitives.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace pbs {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&]() { order.push_back(3); });
  queue.Push(1.0, [&]() { order.push_back(1); });
  queue.Push(2.0, [&]() { order.push_back(2); });
  while (!queue.empty()) queue.Pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5.0, [&order, i]() { order.push_back(i); });
  }
  while (!queue.empty()) queue.Pop()();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ReportsNextTime) {
  EventQueue queue;
  queue.Push(7.5, []() {});
  queue.Push(2.5, []() {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.5);
  double time = 0.0;
  queue.Pop(&time);
  EXPECT_DOUBLE_EQ(time, 2.5);
  EXPECT_DOUBLE_EQ(queue.NextTime(), 7.5);
}

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.Schedule(5.0, [&]() { times.push_back(sim.now()); });
  sim.Schedule(1.0, [&]() { times.push_back(sim.now()); });
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<std::string> log;
  sim.Schedule(1.0, [&]() {
    log.push_back("outer@" + std::to_string(static_cast<int>(sim.now())));
    sim.Schedule(2.0, [&]() {
      log.push_back("inner@" + std::to_string(static_cast<int>(sim.now())));
    });
  });
  sim.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "outer@1");
  EXPECT_EQ(log[1], "inner@3");
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&]() { ++fired; });
  sim.Schedule(10.0, [&]() { ++fired; });
  const size_t processed = sim.RunUntil(5.0);
  EXPECT_EQ(processed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_TRUE(sim.HasPendingEvents());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SelfReschedulingBoundedByMaxEvents) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&]() {
    ++ticks;
    sim.Schedule(1.0, tick);
  };
  sim.Schedule(1.0, tick);
  sim.Run(/*max_events=*/100);
  EXPECT_EQ(ticks, 100);
}

TEST(NetworkTest, DeliversWithExplicitDelay) {
  Simulator sim;
  Network net(&sim, /*seed=*/1);
  double delivered_at = -1.0;
  EXPECT_TRUE(net.SendWithDelay(0, 1, 4.5, [&]() {
    delivered_at = sim.now();
  }));
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 4.5);
  EXPECT_EQ(net.messages_sent(), 1);
}

TEST(NetworkTest, DefaultAndPerLinkLatency) {
  Simulator sim;
  Network net(&sim, /*seed=*/2);
  net.set_default_latency(PointMass(1.0));
  net.SetLinkLatency(0, 2, PointMass(9.0));
  std::vector<double> deliveries;
  EXPECT_TRUE(net.Send(0, 1, [&]() { deliveries.push_back(sim.now()); }));
  EXPECT_TRUE(net.Send(0, 2, [&]() { deliveries.push_back(sim.now()); }));
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(deliveries[0], 1.0);
  EXPECT_DOUBLE_EQ(deliveries[1], 9.0);
}

TEST(NetworkTest, PartitionBlocksBothDirections) {
  Simulator sim;
  Network net(&sim, /*seed=*/3);
  net.SetPartitioned(0, 1, true);
  EXPECT_TRUE(net.IsPartitioned(1, 0));
  int delivered = 0;
  EXPECT_FALSE(net.SendWithDelay(0, 1, 1.0, [&]() { ++delivered; }));
  EXPECT_FALSE(net.SendWithDelay(1, 0, 1.0, [&]() { ++delivered; }));
  EXPECT_TRUE(net.SendWithDelay(0, 2, 1.0, [&]() { ++delivered; }));
  sim.Run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.messages_dropped(), 2);
  // Heal and retry.
  net.SetPartitioned(0, 1, false);
  EXPECT_TRUE(net.SendWithDelay(0, 1, 1.0, [&]() { ++delivered; }));
  sim.Run();
  EXPECT_EQ(delivered, 2);
}

TEST(NetworkTest, DropProbabilityIsRespected) {
  Simulator sim;
  Network net(&sim, /*seed=*/4);
  net.set_drop_probability(0.25);
  int delivered = 0;
  const int messages = 40000;
  for (int i = 0; i < messages; ++i) {
    (void)net.SendWithDelay(0, 1, 0.0, [&]() { ++delivered; });
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / messages, 0.75, 0.01);
  EXPECT_EQ(net.messages_sent() + net.messages_dropped(), messages);
}

}  // namespace
}  // namespace pbs
