#include <gtest/gtest.h>

#include "harness/lyra_cluster.hpp"

namespace lyra {
namespace {

harness::LyraClusterOptions small_options(std::uint64_t seed = 1) {
  harness::LyraClusterOptions opts;
  opts.config.n = 4;
  opts.config.f = 1;
  opts.config.delta = ms(2);
  opts.config.lambda = ms(1);
  opts.config.batch_size = 10;
  opts.config.batch_timeout = ms(5);
  opts.config.heartbeat_period = ms(3);
  opts.config.commit_poll = ms(1);
  opts.config.probe_period = ms(3);
  opts.config.clock_offset_spread = us(200);
  opts.topology = net::single_region(4);
  opts.seed = seed;
  return opts;
}

TEST(LyraSmoke, SingleBatchCommitsAndReveals) {
  harness::LyraCluster cluster(small_options());
  cluster.start();
  // Let the warm-up finish, then submit one transaction at node 0.
  cluster.run_for(ms(50));
  ASSERT_TRUE(cluster.node(0).warmed_up());

  cluster.node(0).submit_local(to_bytes("tx-hello"));
  cluster.run_for(ms(200));

  for (NodeId i = 0; i < 4; ++i) {
    const auto& ledger = cluster.node(i).ledger();
    ASSERT_EQ(ledger.size(), 1u) << "node " << i;
    EXPECT_GT(ledger[0].revealed_at, 0) << "node " << i;
    EXPECT_EQ(ledger[0].tx_count, 1u);
    // Payload decrypted identically everywhere.
    EXPECT_NE(as_string_view(ledger[0].payload_bytes()).find("tx-hello"),
              std::string_view::npos);
  }
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

TEST(LyraSmoke, ClosedLoopClientsReachSteadyState) {
  auto opts = small_options(7);
  opts.topology = net::single_region(5);  // one extra slot for the pool
  harness::LyraCluster cluster(opts);
  cluster.add_client_pool(/*target=*/0, /*width=*/20, /*start_at=*/ms(40),
                          /*measure_from=*/ms(100), /*measure_to=*/ms(900));
  cluster.start();
  cluster.run_for(ms(1000));

  const auto& pool = *cluster.pools().front();
  EXPECT_GT(pool.committed_total(), 100u);
  EXPECT_GT(pool.latency_ms().count(), 0u);
  EXPECT_TRUE(cluster.ledgers_prefix_consistent());
  EXPECT_EQ(cluster.total_late_accepts(), 0u);
}

}  // namespace
}  // namespace lyra
