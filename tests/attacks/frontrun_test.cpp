#include "attacks/frontrun.hpp"

#include <gtest/gtest.h>

#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"

namespace lyra {
namespace {

using attacks::AliceClient;
using attacks::FrontRunningLyraNode;
using attacks::FrontRunningPompeNode;

TEST(FrontRun, PompeClearTextLeaksAndGetsFrontRun) {
  harness::PompeClusterOptions opts;
  opts.config.n = 7;
  opts.config.f = 2;
  opts.config.delta = ms(140);
  opts.config.batch_timeout = ms(5);
  opts.config.batch_size = 4;
  opts.topology = net::fig1_topology(1);
  opts.seed = 21;
  FrontRunningPompeNode* mallory = nullptr;
  opts.node_factory = [&mallory](sim::Simulation* sim, net::Network* net,
                                 NodeId id, const pompe::PompeConfig& cfg,
                                 const crypto::KeyRegistry* reg)
      -> std::unique_ptr<pompe::PompeNode> {
    if (id == 1) {
      auto node =
          std::make_unique<FrontRunningPompeNode>(sim, net, id, cfg, reg);
      mallory = node.get();
      return node;
    }
    return std::make_unique<pompe::PompeNode>(sim, net, id, cfg, reg);
  };
  harness::PompeCluster cluster(opts);
  auto alice = std::make_unique<AliceClient>(
      &cluster.simulation(), &cluster.network(), cluster.next_process_id(),
      /*target=*/0, /*start_at=*/ms(100), /*period=*/ms(400), /*count=*/10);
  cluster.adopt_process(std::move(alice));
  cluster.start();
  cluster.run_for(ms(8000));

  ASSERT_NE(mallory, nullptr);
  EXPECT_EQ(mallory->observed_victims(), 10u);  // every payload leaked

  const auto outcome = attacks::evaluate_pompe_frontrun(cluster.node(2));
  ASSERT_GE(outcome.victims_committed, 8u);
  ASSERT_GE(outcome.attacks_committed, 8u);
  // In this geometry the attacker wins the timestamp race most of the time.
  EXPECT_GE(outcome.front_run_successes, outcome.victims_committed / 2);
}

TEST(FrontRun, LyraCommitRevealBlindsTheAttacker) {
  harness::LyraClusterOptions opts;
  opts.config.n = 7;
  opts.config.f = 2;
  opts.config.delta = ms(160);
  opts.config.lambda = ms(12);
  opts.config.batch_timeout = ms(5);
  opts.config.batch_size = 4;
  opts.config.probe_period = ms(40);
  opts.topology = net::fig1_topology(1);
  opts.seed = 23;
  FrontRunningLyraNode* mallory = nullptr;
  opts.node_factory = [&mallory](sim::Simulation* sim, net::Network* net,
                                 NodeId id, const core::Config& cfg,
                                 const crypto::KeyRegistry* reg)
      -> std::unique_ptr<core::LyraNode> {
    if (id == 1) {
      auto node =
          std::make_unique<FrontRunningLyraNode>(sim, net, id, cfg, reg);
      mallory = node.get();
      return node;
    }
    return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
  };
  harness::LyraCluster cluster(opts);
  auto alice = std::make_unique<AliceClient>(
      &cluster.simulation(), &cluster.network(), cluster.next_process_id(),
      /*target=*/0, /*start_at=*/ms(600), /*period=*/ms(500), /*count=*/8);
  cluster.adopt_process(std::move(alice));
  cluster.start();
  cluster.run_for(ms(10000));

  ASSERT_NE(mallory, nullptr);
  EXPECT_GT(mallory->ciphers_scanned(), 0u);
  // Obfuscation holds: no payload was readable before its reveal.
  EXPECT_EQ(mallory->payloads_readable_before_commit(), 0u);

  const auto outcome = attacks::evaluate_lyra_frontrun(cluster.node(2));
  ASSERT_GE(outcome.victims_committed, 6u);
  // The attacker only learns contents at reveal time, so its dependent
  // transactions always order after their victims.
  EXPECT_EQ(outcome.front_run_successes, 0u);
}

TEST(FrontRun, FindVictimIndexParsesMarkers) {
  EXPECT_EQ(attacks::find_victim_index(to_bytes("xxVICTIM:17yy")), 17);
  EXPECT_EQ(attacks::find_victim_index(to_bytes("VICTIM:0")), 0);
  EXPECT_EQ(attacks::find_victim_index(to_bytes("nothing here")), -1);
  EXPECT_EQ(attacks::find_victim_index(to_bytes("VICTIM:")), -1);
}

}  // namespace
}  // namespace lyra
