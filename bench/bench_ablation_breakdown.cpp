// Ablation A6: where does a Lyra commit's latency go? Per-phase breakdown
// of the paper's sub-second end-to-end latency on the 3-continent
// topology:
//   batch wait  — client submission sits in the proposer's assembler;
//   consensus   — INIT -> VOTE -> AUX to the BOC decision (3 delays);
//   commit wait — the Commit protocol's stable watermark must pass the
//                 batch's sequence number (dominated by L = 3*Delta);
//   reveal      — decryption shares gather and the payload reconstructs.

#include <memory>

#include "bench_common.hpp"
#include "harness/lyra_cluster.hpp"

using namespace lyra;

int main() {
  bench::print_header(
      "Ablation: Lyra latency breakdown by phase (3 continents)",
      "    n   batch-wait   consensus   commit-wait    reveal    (ms, mean "
      "over own batches)");
  std::string csv = "n,batch_wait_ms,consensus_ms,commit_wait_ms,reveal_ms\n";

  for (std::size_t n : {10u, 31u}) {
    harness::LyraClusterOptions opts;
    opts.config.n = n;
    opts.config.f = (n - 1) / 3;
    opts.config.delta = ms(160);
    opts.config.retain_payloads = false;
    opts.topology = net::three_continents_with_clients(n);
    opts.seed = 42;
    harness::LyraCluster cluster(std::move(opts));
    cluster.network().set_bandwidth(125e6);
    for (NodeId i = 0; i < n; ++i) {
      cluster.add_client_pool(i, 1600, ms(900), ms(2500), ms(6000));
    }
    cluster.start();
    cluster.run_for(ms(6000));

    Samples batch_wait;
    Samples consensus;
    Samples commit_wait;
    Samples reveal;
    for (NodeId i = 0; i < n; ++i) {
      const auto& s = cluster.node(i).stats();
      for (double v : s.phase_batch_wait_ms.values()) batch_wait.add(v);
      for (double v : s.phase_consensus_ms.values()) consensus.add(v);
      for (double v : s.phase_commit_wait_ms.values()) commit_wait.add(v);
      for (double v : s.phase_reveal_ms.values()) reveal.add(v);
    }
    std::printf("%5zu %12.1f %11.1f %13.1f %9.1f\n", n, batch_wait.mean(),
                consensus.mean(), commit_wait.mean(), reveal.mean());
    std::fflush(stdout);
    csv += std::to_string(n) + "," + std::to_string(batch_wait.mean()) +
           "," + std::to_string(consensus.mean()) + "," +
           std::to_string(commit_wait.mean()) + "," +
           std::to_string(reveal.mean()) + "\n";
  }
  std::printf("commit-wait is dominated by the acceptance window "
              "L = 3*Delta = 480 ms: the stable watermark trails real time "
              "by design (Alg. 4).\n");
  bench::write_csv("ablation_breakdown.csv", csv);
  return 0;
}
