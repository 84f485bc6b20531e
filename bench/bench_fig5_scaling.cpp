// Fig. 5-style cluster-size scaling sweep: Lyra vs Pompē at n = 100, 300,
// 600, 1000 consensus nodes on the paper's WAN topology, with the
// aggregated client pools (RunConfig::client_shard) that make these sizes
// affordable in one simulator process. Alongside throughput/latency, every
// entry records the process peak RSS — the "memory-flat" claim of the
// snapshot-served state-sync + aggregated-client work is that rss/node
// stays flat (and bounded) as n grows, instead of the superlinear curve a
// per-client-process harness produces.
//
// Operating point (why it differs from the fig3 benches):
//  - Obfuscation is OFF: commit-reveal VSS shares live in GF(256), so
//    obfuscated deployments cap at n = 255 (src/crypto/shamir.cpp) — and
//    the 2f+1 reconstruction threshold outgrows ANY byte field past
//    n ≈ 380. The sweep measures the ordering core, which is also the
//    apples-to-apples comparison: Pompē has no obfuscation layer either.
//  - λ = 80 ms: at n ≥ 100 the warm-up probe fan-out (batch-sized pads
//    serialized across n-1 peers) adds tens of milliseconds of learned
//    distance spread; the paper's λ = 5 ms rejects everything at low load.
//  - The status heartbeat stretches with n: each beat is an O(n) broadcast
//    per node, so idle traffic is n²/period; the period scales so the
//    sweep's wall-clock cost stays roughly linear in n. The commit
//    watermark lags 3Δ = 480 ms regardless, so commits only need the
//    measurement window to start late enough (~2.5 s).
//  - The client anchor rides on a capped proposer set (client_nodes):
//    every client-bearing node proposes and each instance costs O(n²)
//    consensus traffic, so an all-nodes anchor makes the sweep's wall
//    clock grow as n³. Capping the proposer set keeps the offered load
//    roughly constant while the swept variable — the size of the
//    validation + commit quorum — still covers all n nodes.
//
// Output: a human table plus a labelled JSON run (default BENCH_fig5.json).
// Compare runs with tools/bench_compare.py (--metric rss_bytes
// --max-ratio for the memory gate).
//
// Flags: --label <s>  run label stored in the JSON (default "local")
//        --out <path> output file (default BENCH_fig5.json)
//        --quick      CI budget: n = {100, 300}, short windows — also via
//                     LYRA_BENCH_QUICK=1
//        --only <s>   run only entries whose name contains <s> (the full
//                     sweep is ~an hour on one core; rerun a single size
//                     without repeating the rest)

#include "bench_common.hpp"

#include <cstring>
#include <string>
#include <vector>

using namespace lyra;
using harness::RunConfig;
using harness::RunResult;

namespace {

/// One cluster size's operating point (rationale in the header comment).
struct ScalePoint {
  std::size_t n;
  std::size_t client_nodes;  // proposer cap (0 = every node)
  std::uint32_t clients_per_node;
  TimeNs heartbeat;
  TimeNs duration;
  TimeNs measure_from;
  /// Pompē needs longer windows at big n: HotStuff blocks cap at 512 KB
  /// and each batch drags a 2f+1-signature timestamp proof, so commit
  /// latency grows superlinearly (p50 ≈ 4.4 s at n = 300 already). 0 =
  /// same window as Lyra. Pompē wall-clock cost per simulated second is
  /// far below Lyra's (leader-centric O(n) fan-out per phase vs O(n²)
  /// per-instance broadcasts), so the longer windows are nearly free.
  TimeNs pompe_duration = 0;
};

std::vector<ScalePoint> sweep_points(bool quick) {
  if (quick) {
    // CI: the n=300 entry is the memory gate; commits need ~2.5 s to
    // appear, so the quick windows trade the throughput anchor for wall
    // clock (rss_bytes is the metric that matters here).
    return {
        {100, 0, 8, ms(50), ms(2500), ms(1500)},
        {300, 99, 8, ms(100), ms(2000), ms(1500)},
    };
  }
  // 99 proposers (33 per region) from n = 300 up; fewer at 600/1000 so
  // the first commit wave stays within the container's wall-clock
  // budget. Commits land ~2.9-3.4 s after start at the largest sizes
  // (client_start 0.9 s + λ + 3Δ watermark + heartbeat + spread), which
  // is why the windows open at 2.4-2.5 s.
  return {
      {100, 0, 8, ms(50), ms(4500), ms(2500)},
      {300, 99, 8, ms(100), ms(4500), ms(2500), ms(9000)},
      {600, 60, 8, ms(250), ms(4000), ms(2400), ms(26000)},
      {1000, 60, 4, ms(500), ms(4000), ms(2400), ms(48000)},
  };
}

RunConfig base_config(const ScalePoint& p) {
  RunConfig cfg;
  cfg.node.n = p.n;
  cfg.client_nodes = p.client_nodes;
  cfg.clients_per_node = p.clients_per_node;
  cfg.client_shard = 25;    // one pool process per 25 same-region nodes
  cfg.node.obfuscate = false;  // GF(256) cap; see header
  cfg.node.lambda = ms(80);
  cfg.node.batch_size = 100;
  cfg.node.heartbeat_period = p.heartbeat;
  cfg.duration = p.duration;
  cfg.measure_from = p.measure_from;
  return cfg;
}

bench::BenchEntry measure(const std::string& name, const RunConfig& cfg) {
  bench::reset_peak_rss();
  const RunResult r = run_experiment(cfg);
  const std::uint64_t rss = bench::peak_rss_bytes();

  bench::BenchEntry e;
  e.name = name;
  e.params = "n=" + std::to_string(cfg.node.n) +
             " clients=" + std::to_string(cfg.clients_per_node) +
             " client_nodes=" + std::to_string(cfg.client_nodes) +
             " shard=" + std::to_string(cfg.client_shard) +
             " batch=" + std::to_string(cfg.node.batch_size) +
             " lambda_ms=" + std::to_string(to_ms(cfg.node.lambda)) +
             " heartbeat_ms=" +
             std::to_string(to_ms(cfg.node.heartbeat_period)) +
             " duration_ms=" + std::to_string(to_ms(cfg.duration)) +
             " no-obfuscation";
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
  e.extra.emplace_back("rss_bytes", static_cast<double>(rss));
  e.extra.emplace_back("rss_per_node", static_cast<double>(rss) /
                                           static_cast<double>(cfg.node.n));
  e.extra.emplace_back("committed", static_cast<double>(r.committed_txs));
  e.extra.emplace_back("mean_ms", r.mean_latency_ms);
  e.extra.emplace_back("p99_ms", r.p99_latency_ms);
  if (cfg.protocol == harness::Protocol::kLyra) {
    e.extra.emplace_back("accept_rate", r.validation_accept_rate);
  }
  if (harness::needs_state_sync(cfg.crashes,
                                cfg.state_sync || cfg.delta_sync)) {
    e.extra.emplace_back("delta_state_syncs",
                         static_cast<double>(r.delta_state_syncs));
    e.extra.emplace_back("full_state_syncs",
                         static_cast<double>(r.full_state_syncs));
    e.extra.emplace_back("sync_bytes_transferred",
                         static_cast<double>(r.sync.bytes_transferred));
    e.extra.emplace_back("sync_bytes_local",
                         static_cast<double>(r.sync.bytes_local));
    e.extra.emplace_back("sync_chunks_fetched",
                         static_cast<double>(r.sync.chunks_fetched));
    e.extra.emplace_back("sync_chunks_local",
                         static_cast<double>(r.sync.chunks_local));
  }
  std::printf("%-14s %8zu %12llu %10.2f %12.0f %10.1f %9.1f   %s\n",
              name.c_str(), cfg.node.n,
              static_cast<unsigned long long>(r.committed_txs),
              r.throughput_tps, static_cast<double>(rss) / (1024.0 * 1024.0),
              static_cast<double>(rss) / (1024.0 * 1024.0) /
                  static_cast<double>(cfg.node.n),
              r.mean_latency_ms, bench::safety(r));
  std::fflush(stdout);
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "local";
  std::string out = "BENCH_fig5.json";
  std::string only;
  bool quick = bench::quick_mode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  bench::print_header(
      "Fig. 5: cluster-size scaling (aggregated clients, ordering core)",
      "scenario              n    committed       tx/s     rss(MB)  "
      "rss/node(MB)  mean(ms)   safety");

  const auto wanted = [&only](const std::string& name) {
    return only.empty() || name.find(only) != std::string::npos;
  };

  std::vector<bench::BenchEntry> entries;
  for (const ScalePoint& p : sweep_points(quick)) {
    const std::string suffix = "_n" + std::to_string(p.n);
    if (wanted("lyra" + suffix)) {
      RunConfig lyra = base_config(p);
      lyra.protocol = harness::Protocol::kLyra;
      entries.push_back(measure("lyra" + suffix, lyra));
    }
    if (wanted("pompe" + suffix)) {
      RunConfig pompe = base_config(p);
      pompe.protocol = harness::Protocol::kPompe;
      if (p.pompe_duration > 0) pompe.duration = p.pompe_duration;
      entries.push_back(measure("pompe" + suffix, pompe));
    }
  }

  // Recovery entry (full sweep only): the n=300 operating point with a
  // corrupt-WAL crash after the third commit wave, restarted with delta
  // state transfer on. Records how many sync bytes actually crossed the
  // wire vs were satisfied from the survivor's own snapshot prefix. The
  // ~2.7 s downtime spans about two commit waves, so the negotiated cut
  // lands past the crashed node's frozen journal and a genuine suffix
  // moves over the wire (a shorter outage syncs 100% locally — the cut
  // trails the tip and the snapshot cadence is finer than a wave).
  if (!quick && wanted("lyra_n300_recovery")) {
    ScalePoint p{300, 99, 8, ms(100), ms(10000), ms(2500)};
    RunConfig cfg = base_config(p);
    cfg.protocol = harness::Protocol::kLyra;
    cfg.delta_sync = true;
    harness::CrashFault cr;
    cr.node = 7;
    cr.crash_at = ms(6300);
    cr.restart_at = ms(9000);
    cr.corrupt_wal = true;
    cfg.crashes.push_back(cr);
    entries.push_back(measure("lyra_n300_recovery", cfg));
  }

  bench::write_bench_json(out, "bench_fig5_scaling", label, entries);
  return 0;
}
