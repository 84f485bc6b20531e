// Perf-regression harness for the simulator engine itself: how many events
// per host-second the engine pushes through a fig3-style workload (§VI-C
// operating point, n = 100 by default). Unlike the figure benches, the
// numbers of interest here are host-side (events/s, wall time), not
// simulated throughput — this is the trajectory every engine change is
// measured against.
//
// Output: a human table plus a labelled JSON run (default BENCH_sim.json).
// Compare two runs with tools/bench_compare.py; merge a new run into the
// checked-in trajectory with its --merge mode.
//
// Flags: --label <s>  run label stored in the JSON (default "local")
//        --out <path> output file (default BENCH_sim.json)
//        --quick      small budget (n=31, 3s) — also via LYRA_BENCH_QUICK=1

#include "bench_common.hpp"

#include <cstring>
#include <string>

using namespace lyra;
using harness::RunConfig;
using harness::RunResult;

namespace {

bench::BenchEntry measure(const std::string& name, const RunConfig& cfg) {
  const RunResult r = run_experiment(cfg);
  bench::BenchEntry e;
  e.name = name;
  e.params = "n=" + std::to_string(cfg.node.n) +
             " clients=" + std::to_string(cfg.clients_per_node) +
             " batch=" + std::to_string(cfg.node.batch_size) +
             " duration_ms=" + std::to_string(to_ms(cfg.duration));
  e.seed = cfg.seed;
  e.events = r.events_executed;
  e.host_seconds = r.host_seconds;
  e.sim_seconds = r.sim_seconds;
  e.events_per_sec =
      r.host_seconds > 0.0
          ? static_cast<double>(r.events_executed) / r.host_seconds
          : 0.0;
  e.throughput_tps = r.throughput_tps;
  e.hw_concurrency = bench::hw_concurrency();
  e.host_nproc = bench::host_nproc();
  std::printf("%-14s %12llu %10.2f %14.0f %12.0f   %s\n", name.c_str(),
              static_cast<unsigned long long>(e.events), e.host_seconds,
              e.events_per_sec, e.throughput_tps,
              bench::safety(r));
  std::fflush(stdout);
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "local";
  std::string out = "BENCH_sim.json";
  bool quick = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const std::size_t n = quick ? 31 : 100;
  const TimeNs duration = quick ? ms(3000) : ms(6000);
  const TimeNs measure_from = quick ? ms(1500) : ms(2500);

  bench::print_header(
      "Simulator speed (fig3-style workload)",
      "scenario             events    host(s)       events/s         tx/s"
      "   safety");

  std::vector<bench::BenchEntry> entries;

  RunConfig lyra;
  lyra.protocol = harness::Protocol::kLyra;
  lyra.node.n = n;
  lyra.clients_per_node = 2600;  // covers the 3-in-flight pacing window
  lyra.duration = duration;
  lyra.measure_from = measure_from;
  entries.push_back(
      measure(quick ? "lyra_n31" : "lyra_n100", lyra));

  RunConfig pompe;
  pompe.protocol = harness::Protocol::kPompe;
  pompe.node.n = n;
  pompe.duration = duration;
  pompe.measure_from = measure_from;
  const double cap =
      harness::pompe_capacity_estimate(n, pompe.node.batch_size, 125e6);
  pompe.clients_per_node = static_cast<std::uint32_t>(
      std::max(200.0, cap * 1.4 * 1.3 / static_cast<double>(n)));
  entries.push_back(
      measure(quick ? "pompe_n31" : "pompe_n100", pompe));

  bench::write_bench_json(out, "bench_sim_speed", label, entries);
  return 0;
}
