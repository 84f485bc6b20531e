// Ablation A1 (§VI-B): batch size. The paper settles on 800 transactions
// per batch as the best throughput without degrading client latency;
// smaller batches pay per-instance overhead, larger ones pay queueing
// delay.

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;

int main() {
  bench::print_header(
      "Ablation: consensus batch size (Lyra, n = 16, 3 continents)",
      " batch   mean-latency(ms)   throughput(tx/s)");
  std::string csv = "batch,mean_latency_ms,throughput_tps\n";

  for (std::size_t batch : {50u, 100u, 200u, 400u, 800u, 1600u}) {
    RunConfig config;
    config.protocol = harness::Protocol::kLyra;
    config.n = 16;
    config.batch_size = batch;
    // Clients sized to keep the proposal pipeline (3 batches) full.
    config.clients_per_node = static_cast<std::uint32_t>(4 * batch);
    const auto r = run_experiment(config);
    std::printf("%6zu %17.1f %18.0f\n", batch, r.mean_latency_ms,
                r.throughput_tps);
    std::fflush(stdout);
    csv += std::to_string(batch) + "," + std::to_string(r.mean_latency_ms) +
           "," + std::to_string(r.throughput_tps) + "\n";
  }
  bench::write_csv("ablation_batch.csv", csv);
  return 0;
}
