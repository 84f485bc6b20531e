// run_experiment measurements the behaviour pins do not cover.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace lyra {
namespace {

TEST(Experiment, OfferedRateSpansTheArrivalWindow) {
  // Arrivals run from client_start (900 ms) to stop_at (2500 ms), well
  // before the run ends at 4000 ms: the offered rate is the arrivals over
  // those 1.6 s, not over the whole run.
  harness::RunConfig c;
  c.node.n = 4;
  c.node.batch_size = 16;
  c.node.mempool_capacity = 64;
  c.duration = ms(4000);
  c.workload.arrivals.arrival_rate = 300;
  c.workload.arrivals.stop_at = ms(2500);
  const harness::RunResult r = harness::run_experiment(c);
  ASSERT_GT(r.offered_txs, 0u);
  EXPECT_DOUBLE_EQ(r.offered_tps, static_cast<double>(r.offered_txs) / 1.6);
  // Four Poisson sources at 300 tx/s each.
  EXPECT_NEAR(r.offered_tps, 4 * 300.0, 0.15 * 4 * 300.0);
}

}  // namespace
}  // namespace lyra
