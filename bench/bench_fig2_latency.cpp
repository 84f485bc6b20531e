// Reproduces Figure 2 (§VI-C): mean commit latency as a function of the
// number of nodes, Lyra vs Pompē, 3-continent deployment, batch = 800,
// lambda = 5 ms, closed-loop clients at moderate load (below the
// saturation knee, the standard latency-measurement operating point).
//
// Paper's claims to reproduce in shape:
//   * Lyra's latency is relatively stable (< 1 s) as n grows;
//   * Pompē's latency grows with n and is ~2x Lyra's when n > 60.

#include "bench_common.hpp"

#include <algorithm>

using namespace lyra;
using harness::RunConfig;
using harness::RunResult;

namespace {

std::uint32_t pompe_latency_width(std::size_t n) {
  // ~50% of estimated capacity, expressed as in-flight clients per node
  // (throughput x expected latency / n).
  const double cap = harness::pompe_capacity_estimate(n, 800, 125e6);
  const double width = cap * 0.5 * 1.3 / static_cast<double>(n);
  return static_cast<std::uint32_t>(std::clamp(width, 100.0, 1600.0));
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 2: commit latency vs number of nodes",
      "    n   protocol  clients/node   mean(ms)    p50(ms)    p99(ms)  "
      "safety");
  std::string csv = "n,protocol,clients_per_node,mean_ms,p50_ms,p99_ms\n";

  for (std::size_t n : bench::node_counts()) {
    for (auto protocol :
         {harness::Protocol::kLyra, harness::Protocol::kPompe}) {
      RunConfig config;
      config.protocol = protocol;
      config.n = n;
      // Lyra width: an exact batch multiple under the pacing cap, so
      // latency is measured on steady full batches.
      config.clients_per_node = protocol == harness::Protocol::kLyra
                                    ? 1600
                                    : pompe_latency_width(n);
      const RunResult r = run_experiment(config);
      std::printf("%5zu %10s %13u %10.1f %10.1f %10.1f  %s\n", n,
                  harness::protocol_name(protocol), config.clients_per_node,
                  r.mean_latency_ms, r.p50_latency_ms, r.p99_latency_ms,
                  r.prefix_consistent ? "ok" : "VIOLATED");
      std::fflush(stdout);
      csv += std::to_string(n) + "," + harness::protocol_name(protocol) +
             "," + std::to_string(config.clients_per_node) + "," +
             std::to_string(r.mean_latency_ms) + "," +
             std::to_string(r.p50_latency_ms) + "," +
             std::to_string(r.p99_latency_ms) + "\n";
    }
  }
  bench::write_csv("fig2_latency.csv", csv);
  return 0;
}
