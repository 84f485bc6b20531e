// WAN-scale integration: the paper's 3-continent deployment at a small
// node count, with closed-loop clients, checking the end-to-end claims the
// benchmarks rely on (sub-second latency, lower-bounded sequencing, flat
// decide rounds, prefix safety).

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace lyra {
namespace {

using harness::RunConfig;
using harness::RunResult;

RunConfig wan_config(harness::Protocol protocol, std::size_t n) {
  RunConfig c;
  c.protocol = protocol;
  c.node.n = n;
  c.clients_per_node = 1600;
  c.duration = ms(5000);
  c.measure_from = ms(2500);
  return c;
}

TEST(WanIntegration, LyraSubSecondLatencyAndSafety) {
  const RunResult r =
      run_experiment(wan_config(harness::Protocol::kLyra, 10));
  EXPECT_TRUE(r.prefix_consistent);
  EXPECT_EQ(r.late_accepts, 0u);
  EXPECT_GT(r.throughput_tps, 10'000.0);
  EXPECT_GT(r.mean_latency_ms, 300.0);   // WAN floor: 3 delays + L window
  EXPECT_LT(r.mean_latency_ms, 1'000.0);  // the paper's "< 1 s"
  EXPECT_GT(r.validation_accept_rate, 0.98);
  EXPECT_DOUBLE_EQ(r.max_decide_rounds, 1.0);  // Theorem 3 good case
}

TEST(WanIntegration, PompeCommitsWithHigherDelayCount) {
  const RunResult r =
      run_experiment(wan_config(harness::Protocol::kPompe, 10));
  EXPECT_TRUE(r.prefix_consistent);
  EXPECT_GT(r.throughput_tps, 10'000.0);
  // Phase 1 + relay + three chained QCs cannot beat ~3 WAN round trips.
  EXPECT_GT(r.mean_latency_ms, 400.0);
  // Quadratic verification really happened: >= (2f+1) per batch per node.
  EXPECT_GT(r.proof_verifications, 0u);
}

TEST(WanIntegration, LyraObfuscationOffIsFasterNotSafer) {
  RunConfig with = wan_config(harness::Protocol::kLyra, 7);
  RunConfig without = with;
  without.node.obfuscate = false;
  const RunResult r_with = run_experiment(with);
  const RunResult r_without = run_experiment(without);
  EXPECT_TRUE(r_with.prefix_consistent);
  EXPECT_TRUE(r_without.prefix_consistent);
  // Skipping VSS + the share exchange can only reduce latency.
  EXPECT_LE(r_without.mean_latency_ms, r_with.mean_latency_ms + 50.0);
}

TEST(WanIntegration, LyraThroughputGrowsWithClusterSize) {
  const RunResult small =
      run_experiment(wan_config(harness::Protocol::kLyra, 7));
  const RunResult large =
      run_experiment(wan_config(harness::Protocol::kLyra, 16));
  // Leaderless scaling: more proposers, more throughput (Fig. 3's shape).
  EXPECT_GT(large.throughput_tps, small.throughput_tps * 1.5);
}

}  // namespace
}  // namespace lyra
