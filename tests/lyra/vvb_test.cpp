// Observable consequences of the VVB properties (Alg. 1) at cluster level:
// obligation (selective INITs still terminate), uniformity (if one correct
// node commits, all do), and the ReqInit pull path for processes the
// Byzantine broadcaster skipped.

#include <gtest/gtest.h>

#include "attacks/byzantine_lyra.hpp"
#include "harness/lyra_cluster.hpp"

namespace lyra {
namespace {

using attacks::SelectiveInitLyraNode;

harness::LyraClusterOptions vvb_options(std::uint64_t seed) {
  harness::LyraClusterOptions opts;
  opts.config.n = 4;
  opts.config.f = 1;
  opts.config.delta = ms(3);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 8;
  opts.config.batch_timeout = ms(4);
  opts.config.heartbeat_period = ms(2);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.topology = net::single_region(4);
  opts.seed = seed;
  return opts;
}

struct SelectiveCluster {
  explicit SelectiveCluster(std::uint64_t seed, std::size_t recipients) {
    auto opts = vvb_options(seed);
    opts.node_factory = [this, recipients](
                            sim::Simulation* sim, net::Network* net,
                            NodeId id, const core::Config& cfg,
                            const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      if (id == 0) {
        auto node = std::make_unique<SelectiveInitLyraNode>(
            sim, net, id, cfg, reg, recipients);
        byzantine = node.get();
        return node;
      }
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    };
    cluster.emplace(std::move(opts));
  }

  std::optional<harness::LyraCluster> cluster;
  SelectiveInitLyraNode* byzantine = nullptr;
};

TEST(Vvb, SelectiveInitToQuorumStillCommitsEverywhere) {
  // The broadcaster skips node 3 but reaches a full validation quorum
  // (nodes 0..2, including itself): the value can be accepted; node 3
  // must learn it via the forwarded INIT / ReqInit pull and commit it too.
  SelectiveCluster sc(41, /*recipients=*/3);
  auto& cluster = *sc.cluster;
  cluster.start();
  cluster.run_for(ms(60));
  sc.byzantine->propose_selectively(to_bytes("selective-payload"));
  cluster.run_for(ms(600));

  ASSERT_EQ(cluster.min_ledger_length(), cluster.max_ledger_length());
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  if (cluster.min_ledger_length() == 1) {
    // Accepted: every correct node, including the skipped one, revealed it.
    for (NodeId i = 1; i < 4; ++i) {
      const auto& ledger = cluster.node(i).ledger();
      ASSERT_EQ(ledger.size(), 1u) << "node " << i;
      EXPECT_NE(as_string_view(ledger[0].payload_bytes()).find("selective-payload"),
                std::string_view::npos)
          << "node " << i;
    }
  }
}

TEST(Vvb, SelectiveInitBelowQuorumIsRejectedEverywhere) {
  // Only 2 of 4 processes see the INIT: 2f+1 = 3 validations can never
  // accumulate, the expiration timeout floods 0-votes, and the instance
  // resolves as rejected — VVB-Obligation in action, no wedge.
  SelectiveCluster sc(43, /*recipients=*/2);
  auto& cluster = *sc.cluster;
  cluster.start();
  cluster.run_for(ms(60));
  sc.byzantine->propose_selectively(to_bytes("starved-payload"));
  cluster.run_for(ms(600));

  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).ledger().size(), 0u) << "node " << i;
    // No instance may be left undecided (termination).
    EXPECT_EQ(cluster.node(i).commit().state().min_pending(), kMaxSeq)
        << "node " << i;
  }
  // Later traffic is unaffected.
  cluster.node(1).submit_local(to_bytes("after-the-storm"));
  cluster.run_for(ms(300));
  for (NodeId i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).ledger().size(), 1u) << "node " << i;
  }
}

TEST(Vvb, RunsAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    harness::LyraCluster cluster(vvb_options(seed));
    cluster.start();
    cluster.run_for(ms(60));
    for (int i = 0; i < 10; ++i) {
      cluster.node(static_cast<NodeId>(i % 4))
          .submit_local(to_bytes("d" + std::to_string(i)));
    }
    cluster.run_for(ms(400));
    return cluster.node(0).chain_hash();
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(Vvb, DuplicateInitsAreIdempotent) {
  // The same INIT delivered twice (relay after timeout) must not double-
  // commit or double-count votes.
  auto opts = vvb_options(47);
  harness::LyraCluster cluster(std::move(opts));
  cluster.start();
  cluster.run_for(ms(60));
  cluster.node(1).submit_local(to_bytes("only-once"));
  cluster.run_for(ms(600));

  for (NodeId i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.node(i).ledger().size(), 1u) << "node " << i;
  }
}

}  // namespace
}  // namespace lyra
