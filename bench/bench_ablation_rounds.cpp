// Ablation A3 (§III/§IV): good-case latency in protocol rounds. Theorem 3
// proves Lyra's BOC decides in 3 message delays (one DBFT round) when the
// broadcaster is correct and the network is synchronous; Pompē needs 11
// ([31]): 2 for timestamp collection, 1 to relay the sequenced batch, and
// ~8 for chained HotStuff's proposal/vote pipeline to a three-chain.
//
// We measure the DBFT round in which every Lyra decision lands across the
// sweep: in the good case it must be exactly 1 round (= 3 message delays:
// INIT, VOTE, AUX).

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;

int main() {
  bench::print_header(
      "Ablation: good-case decision rounds (Lyra BOC, 3 continents)",
      "    n   mean-DBFT-rounds   max   safety   message-delays(good case)");
  std::string csv = "n,mean_rounds,max_rounds\n";

  for (std::size_t n : {4u, 7u, 10u, 16u, 31u}) {
    RunConfig config;
    config.protocol = harness::Protocol::kLyra;
    config.node.n = n;
    config.clients_per_node = 800;
    config.duration = ms(5000);
    const auto r = run_experiment(config);
    std::printf("%5zu %18.3f %5.0f   %-8s %s\n", n, r.mean_decide_rounds,
                r.max_decide_rounds, bench::safety(r),
                r.max_decide_rounds <= 1.0 ? "3 (optimal, Theorem 3)"
                                           : "3 + extra rounds");
    std::fflush(stdout);
    csv += std::to_string(n) + "," + std::to_string(r.mean_decide_rounds) +
           "," + std::to_string(r.max_decide_rounds) + "\n";
  }
  std::printf("reference: Pompe commits in ~11 message delays "
              "(2 ordering + 1 relay + ~8 HotStuff three-chain)\n");
  bench::write_csv("ablation_rounds.csv", csv);
  return 0;
}
