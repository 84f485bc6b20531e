// Ablation A4 (§VI-D): Byzantine behaviours against Lyra. f silent
// (crashed) processes cost the validation quorum some slack but not
// liveness; the lower-bounded sequence numbers and the 2f+1-highest
// watermark rules keep skewed/lowballing processes from hurting the
// output (those are covered by unit tests; here we quantify the
// performance impact of the strongest omission adversary).
//
// The second run puts re-presentation attackers in the cluster (nodes that
// keep re-broadcasting GC'd INITs): every replay costs the honest nodes a
// full signature verification.

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;

int main() {
  bench::print_header(
      "Ablation: f silent Byzantine nodes (Lyra, n = 16, f = 5)",
      " silent   mean-latency(ms)   throughput(tx/s)   safety");
  std::string csv = "silent,mean_latency_ms,throughput_tps\n";

  for (std::size_t silent : {0u, 2u, 5u}) {
    RunConfig config;
    config.protocol = harness::Protocol::kLyra;
    config.node.n = 16;
    config.clients_per_node = 1600;
    for (NodeId i = 0; i < silent; ++i) {
      config.byz.push_back({i, harness::ByzKind::kSilent});
    }
    const auto r = run_experiment(config);
    std::printf("%7zu %17.1f %18.0f   %s\n", silent, r.mean_latency_ms,
                r.throughput_tps, bench::safety(r));
    std::fflush(stdout);
    csv += std::to_string(silent) + "," + std::to_string(r.mean_latency_ms) +
           "," + std::to_string(r.throughput_tps) + "\n";
  }
  bench::write_csv("ablation_byzantine.csv", csv);

  bench::print_header(
      "Ablation: INIT re-presentation (Lyra, n = 16, 2 replay attackers)",
      "replays   mean-latency(ms)   throughput(tx/s)   safety");
  RunConfig config;
  config.protocol = harness::Protocol::kLyra;
  config.node.n = 16;
  config.clients_per_node = 1600;
  config.byz = {{0, harness::ByzKind::kReplayInit},
                {1, harness::ByzKind::kReplayInit}};
  // Long enough that instances are GC'd mid-run and the replay stream is
  // sustained over the measurement window.
  config.duration = ms(10000);
  config.measure_from = ms(5000);
  const auto r = run_experiment(config);
  std::printf("%7llu %18.1f %18.0f   %s\n",
              static_cast<unsigned long long>(r.replays_sent),
              r.mean_latency_ms, r.throughput_tps, bench::safety(r));
  bench::write_csv("ablation_replay.csv",
                   "replays,mean_latency_ms,throughput_tps\n" +
                       std::to_string(r.replays_sent) + "," +
                       std::to_string(r.mean_latency_ms) + "," +
                       std::to_string(r.throughput_tps) + "\n");
  return 0;
}
