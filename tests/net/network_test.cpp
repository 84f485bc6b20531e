#include "net/network.hpp"

#include <gtest/gtest.h>

namespace lyra::net {
namespace {

struct Ping final : sim::Payload {
  explicit Ping(int tag) : tag(tag) {}
  int tag;
  const char* name() const override { return "PING"; }
};

class Sink final : public sim::Process {
 public:
  using sim::Process::Process;
  using sim::Process::broadcast;
  using sim::Process::send;

  std::vector<sim::Envelope> received;

 protected:
  void on_message(const sim::Envelope& env) override {
    received.push_back(env);
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : sim_(1),
        net_(&sim_, std::make_unique<UniformLatency>(ms(10)), 3) {
    for (NodeId i = 0; i < 4; ++i) {
      nodes_.push_back(std::make_unique<Sink>(&sim_, &net_, i));
      net_.attach(nodes_.back().get());
    }
  }

  sim::Simulation sim_;
  Network net_;
  std::vector<std::unique_ptr<Sink>> nodes_;
};

TEST_F(NetworkTest, DeliversWithLatency) {
  nodes_[0]->send(1, std::make_shared<Ping>(7));
  sim_.run_all();
  ASSERT_EQ(nodes_[1]->received.size(), 1u);
  const auto& env = nodes_[1]->received[0];
  EXPECT_EQ(env.from, 0u);
  EXPECT_EQ(env.to, 1u);
  EXPECT_EQ(env.delivered_at - env.sent_at, ms(10));
  EXPECT_EQ(sim::payload_as<Ping>(env)->tag, 7);
}

TEST_F(NetworkTest, PayloadIsSharedUntampered) {
  auto payload = std::make_shared<Ping>(42);
  nodes_[0]->send(1, payload);
  nodes_[0]->send(2, payload);
  sim_.run_all();
  EXPECT_EQ(sim::payload_as<Ping>(nodes_[1]->received[0])->tag, 42);
  EXPECT_EQ(sim::payload_as<Ping>(nodes_[2]->received[0]), payload.get());
}

TEST_F(NetworkTest, BroadcastOnlyHitsConsensusNodes) {
  // Node 3 is a client (consensus_count = 3) and must not receive
  // broadcasts.
  nodes_[0]->broadcast(std::make_shared<Ping>(1));
  sim_.run_all();
  EXPECT_EQ(nodes_[0]->received.size(), 1u);  // self-delivery
  EXPECT_EQ(nodes_[1]->received.size(), 1u);
  EXPECT_EQ(nodes_[2]->received.size(), 1u);
  EXPECT_EQ(nodes_[3]->received.size(), 0u);
}

TEST_F(NetworkTest, ClientsCanSendToNodes) {
  nodes_[3]->send(0, std::make_shared<Ping>(9));
  sim_.run_all();
  ASSERT_EQ(nodes_[0]->received.size(), 1u);
  EXPECT_EQ(nodes_[0]->received[0].from, 3u);
}

TEST_F(NetworkTest, CountsDeliveries) {
  nodes_[0]->broadcast(std::make_shared<Ping>(1));
  sim_.run_all();
  EXPECT_EQ(net_.messages_delivered(), 3u);
}

TEST(NetworkFifo, BroadcastThenUnicastKeepChannelOrderUnderJitter) {
  // A broadcast and a unicast to the same receiver share that channel:
  // under heavy jitter the receiver still sees them in send order.
  sim::Simulation sim(5);
  Network net(&sim, std::make_unique<UniformLatency>(ms(10), 0.5), 3);
  std::vector<std::unique_ptr<Sink>> nodes;
  for (NodeId i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<Sink>(&sim, &net, i));
    net.attach(nodes.back().get());
  }
  for (int i = 0; i < 100; ++i) {
    nodes[0]->broadcast(std::make_shared<Ping>(2 * i));
    nodes[0]->send(1, std::make_shared<Ping>(2 * i + 1));
  }
  sim.run_all();
  ASSERT_EQ(nodes[1]->received.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sim::payload_as<Ping>(nodes[1]->received[i])->tag, i);
  }
  ASSERT_EQ(nodes[2]->received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(sim::payload_as<Ping>(nodes[2]->received[i])->tag, 2 * i);
  }
}

/// Holds back the message tagged 1 by an extra 100 ms.
class HoldTagOne final : public Adversary {
 public:
  TimeNs delay(const sim::Envelope& env, TimeNs base_delay, Rng&) override {
    return sim::payload_as<Ping>(env)->tag == 1 ? base_delay + ms(100)
                                                : base_delay;
  }
};

TEST_F(NetworkTest, ChannelFloorsSurviveDetachAndAttach) {
  // A restarted node's channels keep their ordering: a message sent after
  // the restart cannot overtake one sent to the node before it crashed.
  HoldTagOne hold;
  net_.set_adversary(&hold);
  nodes_[0]->send(1, std::make_shared<Ping>(1));  // due at 110 ms
  net_.detach(1);
  sim_.run_until(ms(20));
  Sink restarted(&sim_, &net_, 1);
  net_.attach(&restarted);
  nodes_[0]->send(1, std::make_shared<Ping>(2));  // 30 ms without the floor
  sim_.run_all();
  ASSERT_EQ(restarted.received.size(), 2u);
  EXPECT_EQ(sim::payload_as<Ping>(restarted.received[0])->tag, 1);
  EXPECT_EQ(sim::payload_as<Ping>(restarted.received[1])->tag, 2);
  EXPECT_EQ(restarted.received[1].delivered_at, ms(110));
  EXPECT_TRUE(nodes_[1]->received.empty());
}

TEST(NetworkDeterminism, SameSeedSameDeliveryTimes) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim(seed);
    Network net(&sim, std::make_unique<UniformLatency>(ms(10), 0.3), 2);
    Sink a(&sim, &net, 0);
    Sink b(&sim, &net, 1);
    net.attach(&a);
    net.attach(&b);
    for (int i = 0; i < 20; ++i) a.send(1, std::make_shared<Ping>(i));
    sim.run_all();
    std::vector<TimeNs> times;
    for (const auto& env : b.received) times.push_back(env.delivered_at);
    return times;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
}

}  // namespace
}  // namespace lyra::net
