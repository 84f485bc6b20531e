// Reproduces Figure 3 (§VI-C): committed transactions per second as a
// function of the number of nodes, Lyra vs Pompē, at saturation (peak
// throughput across client widths, the paper's operating point).
//
// Paper's claims to reproduce in shape:
//   * Pompē performs better up to ~20 nodes but degrades as n grows
//     (leader egress + quadratic timestamp verification);
//   * Lyra's throughput grows with n — every node proposes — reaching
//     ~240k tx/s at n = 100 (~7x Pompē).

#include "bench_common.hpp"

#include <algorithm>
#include <cstring>

using namespace lyra;
using harness::RunConfig;
using harness::RunResult;

namespace {

/// The peak-throughput run over `widths`, or the first run that breaks
/// safety, so a violation is never hidden behind a faster run.
RunResult best_of(RunConfig config,
                  const std::vector<std::uint32_t>& widths) {
  RunResult best;
  for (std::uint32_t w : widths) {
    config.clients_per_node = w;
    const RunResult r = run_experiment(config);
    if (std::strcmp(bench::safety(r), "ok") != 0) return r;
    if (r.throughput_tps > best.throughput_tps) best = r;
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 3: throughput vs number of nodes (peak over client widths)",
      "    n   protocol   tx/s        latency@peak(ms)  safety");
  std::string csv = "n,protocol,throughput_tps,latency_ms\n";

  for (std::size_t n : bench::node_counts()) {
    // Lyra saturates once clients cover the proposal-pacing window
    // (3 batches in flight per node).
    RunConfig lyra_cfg;
    lyra_cfg.protocol = harness::Protocol::kLyra;
    lyra_cfg.node.n = n;
    const RunResult lyra = best_of(lyra_cfg, {2600});

    // Pompē's knee moves with n: probe around the capacity estimate.
    RunConfig pompe_cfg;
    pompe_cfg.protocol = harness::Protocol::kPompe;
    pompe_cfg.node.n = n;
    const double cap = harness::pompe_capacity_estimate(n, 800, 125e6);
    std::vector<std::uint32_t> widths;
    for (double mult : {0.8, 1.4, 2.2}) {
      const double w = cap * mult * 1.3 / static_cast<double>(n);
      widths.push_back(
          static_cast<std::uint32_t>(std::clamp(w, 200.0, 30'000.0)));
    }
    const RunResult pompe = best_of(pompe_cfg, widths);

    for (const auto& [name, r] :
         {std::pair{"lyra", lyra}, std::pair{"pompe", pompe}}) {
      std::printf("%5zu %10s %10.0f %15.1f          %s\n", n, name,
                  r.throughput_tps, r.mean_latency_ms,
                  bench::safety(r));
      std::fflush(stdout);
      csv += std::to_string(n) + "," + name + "," +
             std::to_string(r.throughput_tps) + "," +
             std::to_string(r.mean_latency_ms) + "\n";
    }
  }
  bench::write_csv("fig3_throughput.csv", csv);
  return 0;
}
