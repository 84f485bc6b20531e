// Load sweep under the open-loop workload engine (docs/WORKLOAD.md):
// offered load vs goodput, latency, backpressure, and the economic
// front-running metric, Lyra vs Pompē at n = 100 with one sandwich
// adversary bidding fees against observed high-value transactions.
//
// Claims to reproduce in shape:
//   * goodput tracks offered load until the mempool saturates, then
//     flattens while backpressure (rejects, evictions) absorbs the rest;
//   * p99 latency rises steeply past the knee while p50 stays bounded
//     (the fee-priority mempool keeps high bids moving);
//   * extracted value is positive on Pompē at every load point and ~0 on
//     Lyra (the adversary only reads payloads after the order is fixed).
//
// LYRA_BENCH_QUICK=1 shrinks the cluster and sweep for CI.

#include "bench_common.hpp"

using namespace lyra;
using harness::RunConfig;
using harness::RunResult;

namespace {

std::vector<double> arrival_rates() {
  // Per-node offered load, tx/s. The mempool capacity below puts the
  // saturation knee inside the sweep.
  if (bench::quick_mode()) {
    return {100, 300, 600, 1200};
  }
  return {100, 200, 400, 800, 1600};
}

}  // namespace

int main() {
  const std::size_t n = bench::quick_mode() ? 7 : 100;
  bench::print_header(
      "Figure 4: open-loop load sweep with a sandwich adversary",
      "  rate   protocol  offered(tx/s)  goodput(tx/s)    p50(ms)    "
      "p99(ms)   rejected    evicted  extracted  safety");
  std::string csv =
      "rate,protocol,offered_tps,goodput_tps,p50_ms,p99_ms,rejected,"
      "evicted,terminal_rejects,extracted_value,adversary_profit\n";
  std::vector<bench::BenchEntry> entries;

  for (double rate : arrival_rates()) {
    for (auto protocol :
         {harness::Protocol::kLyra, harness::Protocol::kPompe}) {
      RunConfig config;
      config.protocol = protocol;
      config.node.n = n;
      config.duration = bench::quick_mode() ? ms(4000) : ms(6000);
      config.measure_from = bench::quick_mode() ? ms(1500) : ms(2500);
      config.node.batch_size = bench::quick_mode() ? 100 : 800;
      config.node.mempool_capacity = bench::quick_mode() ? 256 : 2048;
      config.workload.arrivals.arrival_rate = rate;
      config.workload.sandwich_attackers = 1;
      config.workload.sandwich.value_threshold = 2000;
      const RunResult r = run_experiment(config);

      std::printf(
          "%6.0f %10s %14.0f %14.0f %10.1f %10.1f %10llu %10llu %10.1f  "
          "%s\n",
          rate, harness::protocol_name(protocol), r.offered_tps,
          r.throughput_tps, r.p50_latency_ms, r.p99_latency_ms,
          static_cast<unsigned long long>(r.rejected_submits),
          static_cast<unsigned long long>(r.mempool_evictions),
          r.economics.extracted_value,
          bench::safety(r));
      std::fflush(stdout);

      csv += std::to_string(rate) + "," + harness::protocol_name(protocol) +
             "," + std::to_string(r.offered_tps) + "," +
             std::to_string(r.throughput_tps) + "," +
             std::to_string(r.p50_latency_ms) + "," +
             std::to_string(r.p99_latency_ms) + "," +
             std::to_string(r.rejected_submits) + "," +
             std::to_string(r.mempool_evictions) + "," +
             std::to_string(r.terminal_rejects) + "," +
             std::to_string(r.economics.extracted_value) + "," +
             std::to_string(r.economics.adversary_profit) + "\n";

      bench::BenchEntry e;
      e.name = std::string(harness::protocol_name(protocol)) + "_load" +
               std::to_string(static_cast<int>(rate));
      e.params = "n=" + std::to_string(n) +
                 " rate=" + std::to_string(static_cast<int>(rate)) +
                 " cap=" + std::to_string(config.node.mempool_capacity);
      e.seed = config.seed;
      e.events = r.events_executed;
      e.events_per_sec = r.host_seconds > 0
                             ? static_cast<double>(r.events_executed) /
                                   r.host_seconds
                             : 0.0;
      e.host_seconds = r.host_seconds;
      e.sim_seconds = r.sim_seconds;
      e.throughput_tps = r.throughput_tps;
      e.hw_concurrency = bench::hw_concurrency();
      e.host_nproc = bench::host_nproc();
      e.extra = {{"offered_tps", r.offered_tps},
                 {"goodput_tps", r.throughput_tps},
                 {"p50_ms", r.p50_latency_ms},
                 {"p99_ms", r.p99_latency_ms},
                 {"rejected", static_cast<double>(r.rejected_submits)},
                 {"evicted", static_cast<double>(r.mempool_evictions)},
                 {"extracted_value", r.economics.extracted_value}};
      entries.push_back(std::move(e));
    }
  }
  bench::write_csv("fig4_load.csv", csv);
  bench::write_bench_json("fig4_load.json", "fig4_load", "load-sweep",
                          entries);
  return 0;
}
