// Tests for the simulated network: queues, links, routing, dumbbell.

#include <gtest/gtest.h>

#include "iq/net/dumbbell.hpp"
#include "iq/net/network.hpp"
#include "iq/net/sinks.hpp"

namespace iq::net {
namespace {

PacketPtr make_test_packet(Network& net, Endpoint src, Endpoint dst,
                           std::int64_t bytes, std::uint32_t flow = 1) {
  return net.make_packet(src, dst, flow, bytes);
}

// ---------------------------------------------------------------- Queue ---

TEST(DropTailQueueTest, FifoOrder) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(10'000);
  auto p1 = make_test_packet(net, {0, 1}, {1, 1}, 100);
  auto p2 = make_test_packet(net, {0, 1}, {1, 1}, 200);
  ASSERT_TRUE(q.enqueue(p1));
  ASSERT_TRUE(q.enqueue(p2));
  EXPECT_EQ(q.bytes(), 300);
  EXPECT_EQ(q.dequeue(), p1);
  EXPECT_EQ(q.dequeue(), p2);
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueueTest, DropsWhenFull) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(250);
  EXPECT_TRUE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 200)));
  EXPECT_FALSE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 100)));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.dropped_bytes(), 100);
  // A packet that fits still gets in.
  EXPECT_TRUE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 50)));
}

TEST(DropTailQueueTest, TracksPeakOccupancy) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(1000);
  q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 400));
  q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 400));
  q.dequeue();
  EXPECT_EQ(q.max_bytes_seen(), 800);
  EXPECT_EQ(q.bytes(), 400);
}

// ----------------------------------------------------------------- Link ---

TEST(LinkTest, SerializationPlusPropagationDelay) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  // 12 Mb/s, 3 ms propagation: 1500 B = 1 ms serialization.
  Link link(sim, "l", {.rate_bps = 12'000'000,
                       .propagation = Duration::millis(3),
                       .queue_capacity_bytes = 100'000},
            sink);
  link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(sim.now().ns(), Duration::millis(4).ns());
}

TEST(LinkTest, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  Link link(sim, "l", {.rate_bps = 12'000'000,
                       .propagation = Duration::zero(),
                       .queue_capacity_bytes = 100'000},
            sink);
  for (int i = 0; i < 5; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  }
  sim.run();
  EXPECT_EQ(sink.packets(), 5u);
  // Five 1 ms transmissions, sequential.
  EXPECT_EQ(sim.now().ns(), Duration::millis(5).ns());
}

TEST(LinkTest, QueueOverflowDrops) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  // Queue only fits 2 x 1500 while one is transmitting.
  Link link(sim, "l", {.rate_bps = 1'000'000,
                       .propagation = Duration::zero(),
                       .queue_capacity_bytes = 3000},
            sink);
  for (int i = 0; i < 10; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  }
  sim.run();
  // 1 transmitting + 2 queued delivered; the rest dropped.
  EXPECT_EQ(sink.packets(), 3u);
  EXPECT_EQ(link.queue().dropped(), 7u);
}

TEST(LinkTest, ThroughputMatchesRate) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  Link link(sim, "l", {.rate_bps = 20'000'000,
                       .propagation = Duration::millis(1),
                       .queue_capacity_bytes = 10'000'000},
            sink);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1400));
  }
  sim.run();
  const double expected_s = n * 1400 * 8.0 / 20e6 + 0.001;
  EXPECT_NEAR(sim.now().to_seconds(), expected_s, 1e-6);
}

// -------------------------------------------------------- Node routing ----

TEST(NodeTest, LocalDeliveryByPort) {
  sim::Simulator sim;
  Network net(sim);
  Node& n = net.add_node("host");
  CountingSink sink;
  n.bind(5, &sink);
  n.deliver(make_test_packet(net, {9, 1}, {n.id(), 5}, 100));
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(n.delivered_local(), 1u);
}

TEST(NodeTest, UnboundPortDeadLetters) {
  sim::Simulator sim;
  Network net(sim);
  Node& n = net.add_node("host");
  n.deliver(make_test_packet(net, {9, 1}, {n.id(), 5}, 100));
  EXPECT_EQ(n.dead_lettered(), 1u);
}

TEST(NetworkTest, ComputeRoutesForwardsAcrossHops) {
  sim::Simulator sim;
  Network net(sim);
  Node& a = net.add_node("a");
  Node& r = net.add_node("r");
  Node& b = net.add_node("b");
  LinkConfig fast{.rate_bps = 100'000'000,
                  .propagation = Duration::millis(1),
                  .queue_capacity_bytes = 1'000'000};
  net.add_duplex_link(a, r, fast);
  net.add_duplex_link(r, b, fast);
  net.compute_routes();

  CountingSink sink;
  b.bind(7, &sink);
  a.send(make_test_packet(net, {a.id(), 7}, {b.id(), 7}, 500));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(r.forwarded(), 1u);
}

TEST(NetworkTest, TracerCountsPerFlow) {
  sim::Simulator sim;
  Network net(sim);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& ab = net.add_link(a, b,
                          {.rate_bps = 10'000'000,
                           .propagation = Duration::millis(1),
                           .queue_capacity_bytes = 100'000});
  net.compute_routes();

  CountingSink sink;
  b.bind(7, &sink);
  a.send(make_test_packet(net, {a.id(), 7}, {b.id(), 7}, 500, /*flow=*/42));
  a.send(make_test_packet(net, {a.id(), 7}, {b.id(), 7}, 500, /*flow=*/42));
  sim.run();
  EXPECT_EQ(ab.transmitted(), 2u);
  EXPECT_EQ(sink.packets(), 2u);
  EXPECT_EQ(ab.queue().dropped(), 0u);
}

// ------------------------------------------------------------- Dumbbell ---

TEST(DumbbellTest, EndToEndRttMatchesConfig) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 2, .path_rtt = Duration::millis(30)});

  CountingSink sink;
  db.right(0).bind(7, &sink);
  TimePoint arrival;
  CallbackSink capture([&](PacketPtr) { arrival = sim.now(); });
  db.right(0).bind(7, &capture);

  db.left(0).send(
      make_test_packet(net, {db.left(0).id(), 7}, {db.right(0).id(), 7}, 100));
  sim.run();
  // One-way propagation is rtt/2 plus (tiny) serialization delays.
  EXPECT_GE((arrival - TimePoint::zero()).ms(), 14);
  EXPECT_LE((arrival - TimePoint::zero()).ms(), 17);
}

TEST(DumbbellTest, CrossTrafficSharesBottleneck) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 2});
  CountingSink s0, s1;
  db.right(0).bind(7, &s0);
  db.right(1).bind(7, &s1);
  db.left(0).send(
      make_test_packet(net, {db.left(0).id(), 7}, {db.right(0).id(), 7}, 100));
  db.left(1).send(
      make_test_packet(net, {db.left(1).id(), 7}, {db.right(1).id(), 7}, 100));
  sim.run();
  EXPECT_EQ(s0.packets(), 1u);
  EXPECT_EQ(s1.packets(), 1u);
  EXPECT_EQ(db.bottleneck().transmitted(), 2u);
}

TEST(DumbbellTest, ReverseBottleneckCarriesAcks) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 1});
  CountingSink sink;
  db.left(0).bind(7, &sink);
  db.right(0).send(
      make_test_packet(net, {db.right(0).id(), 7}, {db.left(0).id(), 7}, 40));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(db.bottleneck_reverse().transmitted(), 1u);
}

}  // namespace
}  // namespace iq::net
