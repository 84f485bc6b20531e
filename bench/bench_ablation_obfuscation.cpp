// Ablation A5: cost of the commit-reveal scheme. Lyra with obfuscation
// disabled skips VSS encryption and the decryption-share exchange; the
// difference is the price paid for MEV resistance.

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;

int main() {
  bench::print_header(
      "Ablation: commit-reveal obfuscation on/off (Lyra, n = 16)",
      " obfuscation   mean-latency(ms)   throughput(tx/s)   safety");
  std::string csv = "obfuscate,mean_latency_ms,throughput_tps\n";

  for (bool obfuscate : {true, false}) {
    RunConfig config;
    config.protocol = harness::Protocol::kLyra;
    config.node.n = 16;
    config.clients_per_node = 1600;
    config.node.obfuscate = obfuscate;
    const auto r = run_experiment(config);
    std::printf("%12s %17.1f %18.0f   %s\n", obfuscate ? "on" : "off",
                r.mean_latency_ms, r.throughput_tps, bench::safety(r));
    std::fflush(stdout);
    csv += std::string(obfuscate ? "on" : "off") + "," +
           std::to_string(r.mean_latency_ms) + "," +
           std::to_string(r.throughput_tps) + "\n";
  }
  bench::write_csv("ablation_obfuscation.csv", csv);
  return 0;
}
