// lyra_sim: command-line experiment runner. Runs one protocol deployment
// on the simulated 3-continent WAN with closed-loop clients and reports
// latency/throughput/safety — the same harness the benchmarks use, with
// every knob on a flag.
//
//   lyra_sim --protocol=lyra --nodes=31 --clients=1600
//   lyra_sim --protocol=pompe --nodes=100 --clients=300 --duration-ms=8000
//   lyra_sim --protocol=lyra --nodes=16 --lambda-ms=2 --no-obfuscation
//   lyra_sim --nodes=4 --crash-node 2 --crash-at 3s --restart-at 5s
//
// Flags take either --flag=value or --flag value; durations accept "ms"
// and "s" suffixes (plain numbers are milliseconds).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"

using namespace lyra;
using harness::RunConfig;

namespace {

void usage() {
  std::printf(
      "usage: lyra_sim [options]\n"
      "  --protocol=lyra|pompe     protocol to run (default lyra)\n"
      "  --nodes=N                 consensus nodes, n > 3f (default 16)\n"
      "  --clients=W               closed-loop clients per node (default 1600)\n"
      "  --duration-ms=T           simulated run length (default 6000)\n"
      "  --measure-from-ms=T       measurement window start (default 2500)\n"
      "  --batch=B                 transactions per batch (default 800)\n"
      "  --batch-timeout=T         propose a partial batch after T "
      "(default 50ms)\n"
      "  --heartbeat-ms=T          status-heartbeat period (default 25ms;\n"
      "                            idle traffic is n^2/period — stretch it\n"
      "                            on big clusters)\n"
      "  --lambda-ms=L             validation window lambda (default 5)\n"
      "  --outstanding=K           Lyra proposal pipeline depth (default 3)\n"
      "  --silent=S                silent Byzantine Lyra nodes 0..S-1\n"
      "                            (default 0)\n"
      "  --replay-attackers=R      Lyra nodes S..S+R-1 also re-broadcast old\n"
      "                            INITs (Byzantine re-presentation traffic;\n"
      "                            default 0); S + R <= f\n"
      "  --bandwidth-gbps=B        per-node egress (default 1.0)\n"
      "  --seed=S                  run seed (default 42)\n"
      "  --no-obfuscation          disable Lyra's commit-reveal\n"
      "  --crash-node=N            crash node N mid-run (Lyra; repeatable,\n"
      "                            one window per node; Byzantine slots +\n"
      "                            nodes down at once <= f)\n"
      "  --crash-at=T              crash time for the last --crash-node\n"
      "  --restart-at=T            restart time (recovers from WAL+snapshot)\n"
      "  --wipe-disk               wipe the last --crash-node's disk 2/5\n"
      "                            into its window (rejoins via peer state\n"
      "                            transfer)\n"
      "  --corrupt-wal             bit-rot the last --crash-node's WAL while\n"
      "                            it is down (rejoins via state transfer)\n"
      "  --state-sync              enable the statesync subsystem on every\n"
      "                            Lyra node (implied by the two flags above)\n"
      "  --delta-sync              delta state transfer: a rejoining node\n"
      "                            with a decodable snapshot keeps its local\n"
      "                            prefix and pulls only the missing suffix\n"
      "                            (implies --state-sync)\n"
      "  --client-shard=K          aggregate closed-loop clients: one pool\n"
      "                            process drives up to K same-region nodes\n"
      "                            (0 = one pool per node; makes n=300-1000\n"
      "                            sweeps affordable)\n"
      "  --client-nodes=K          attach closed-loop clients to nodes\n"
      "                            0..K-1 only\n"
      "                            (0 = every node; each client-bearing\n"
      "                            node proposes, and every instance costs\n"
      "                            O(n^2) consensus traffic — cap the\n"
      "                            proposer set on big-cluster sweeps)\n"
      "  --memoize-verify          cache signature/proof verification by\n"
      "                            message identity (re-presented Byzantine\n"
      "                            traffic verifies once)\n"
      "open-loop workload engine (docs/WORKLOAD.md):\n"
      "  --open-loop               replace closed-loop clients with Poisson\n"
      "                            traffic sources and give every node a\n"
      "                            bounded fee-priority mempool\n"
      "  --arrival-rate=R          offered load per node, tx/s (default 200)\n"
      "  --accounts=A              Zipf account universe (default 100000)\n"
      "  --zipf-s=S                Zipf skew exponent (default 1.0)\n"
      "  --burst-every=T           mean gap between burst episodes (0 = off)\n"
      "  --burst-len=T             burst episode length (default 250ms)\n"
      "  --burst-mult=M            rate multiplier inside bursts (default 4)\n"
      "  --mempool-cap=C           per-node mempool bound (default 4096)\n"
      "  --fee-model=M             constant|uniform|lognormal (default\n"
      "                            uniform)\n"
      "  --max-retries=K           backpressure retries before a terminal\n"
      "                            reject (default 6)\n"
      "  --retry-backoff=T         initial retry backoff, doubles per reject\n"
      "                            (default 40ms)\n"
      "  --sandwich-attackers=A    nodes (highest ids) running the economic\n"
      "                            sandwich adversary (default 0)\n"
      "  --victim-threshold=V      min victim value worth attacking\n"
      "                            (default 5000)\n"
      "  --help                    this text\n"
      "durations (T) accept '3s', '250ms', or plain milliseconds\n");
}

/// Accepts --flag=value and --flag value; the latter consumes argv[i+1].
bool parse_value(int argc, char** argv, int& i, const char* flag,
                 std::string& out) {
  const char* arg = argv[i];
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) != 0) return false;
  if (arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0' && i + 1 < argc) {
    out = argv[++i];
    return true;
  }
  return false;
}

/// "3s" -> 3 s, "250ms" -> 250 ms, "1500" -> 1500 ms.
bool parse_duration(const std::string& text, TimeNs& out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return false;
  const std::string suffix(end);
  if (suffix.empty() || suffix == "ms") {
    out = ms(v);
  } else if (suffix == "s") {
    out = ms(v * 1000.0);
  } else if (suffix == "us") {
    out = us(v);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.n = 16;
  std::size_t silent = 0;
  std::size_t replayers = 0;
  workload::OpenLoopOptions& arrivals = config.workload.arrivals;
  // The window the last --crash-node opened; null (after saying so) if none.
  const auto last_crash = [&config](const char* flag) -> harness::CrashFault* {
    if (!config.crashes.empty()) return &config.crashes.back();
    std::fprintf(stderr, "%s needs a preceding --crash-node\n", flag);
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_value(argc, argv, i, "--protocol", value)) {
      if (!harness::protocol_from_string(value, config.protocol)) {
        std::fprintf(stderr, "unknown protocol '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--nodes", value)) {
      config.n = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--clients", value)) {
      config.clients_per_node =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (parse_value(argc, argv, i, "--duration-ms", value)) {
      if (!parse_duration(value, config.duration)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--measure-from-ms", value)) {
      if (!parse_duration(value, config.measure_from)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--batch-timeout", value)) {
      if (!parse_duration(value, config.batch_timeout)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--batch", value)) {
      config.batch_size = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--heartbeat-ms", value)) {
      if (!parse_duration(value, config.heartbeat)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--lambda-ms", value)) {
      config.lambda = ms(std::strtod(value.c_str(), nullptr));
    } else if (parse_value(argc, argv, i, "--outstanding", value)) {
      config.max_outstanding = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--silent", value)) {
      silent = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--replay-attackers", value)) {
      replayers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--bandwidth-gbps", value)) {
      config.bandwidth_bytes_per_sec =
          std::strtod(value.c_str(), nullptr) * 125e6;
    } else if (parse_value(argc, argv, i, "--seed", value)) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--crash-node", value)) {
      harness::CrashFault c;
      c.node = static_cast<NodeId>(std::strtoul(value.c_str(), nullptr, 10));
      config.crashes.push_back(c);
    } else if (parse_value(argc, argv, i, "--crash-at", value)) {
      harness::CrashFault* c = last_crash("--crash-at");
      if (c == nullptr) return 2;
      if (!parse_duration(value, c->crash_at)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--restart-at", value)) {
      harness::CrashFault* c = last_crash("--restart-at");
      if (c == nullptr) return 2;
      if (!parse_duration(value, c->restart_at)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--wipe-disk") == 0) {
      harness::CrashFault* c = last_crash("--wipe-disk");
      if (c == nullptr) return 2;
      c->wipe_disk = true;
    } else if (std::strcmp(argv[i], "--corrupt-wal") == 0) {
      harness::CrashFault* c = last_crash("--corrupt-wal");
      if (c == nullptr) return 2;
      c->corrupt_wal = true;
    } else if (parse_value(argc, argv, i, "--arrival-rate", value)) {
      arrivals.arrival_rate = std::strtod(value.c_str(), nullptr);
    } else if (parse_value(argc, argv, i, "--accounts", value)) {
      arrivals.accounts = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--zipf-s", value)) {
      arrivals.zipf_s = std::strtod(value.c_str(), nullptr);
    } else if (parse_value(argc, argv, i, "--burst-every", value)) {
      TimeNs t = 0;
      if (!parse_duration(value, t)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
      arrivals.burst_every_ms = to_ms(t);
    } else if (parse_value(argc, argv, i, "--burst-len", value)) {
      TimeNs t = 0;
      if (!parse_duration(value, t)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
      arrivals.burst_len_ms = to_ms(t);
    } else if (parse_value(argc, argv, i, "--burst-mult", value)) {
      arrivals.burst_mult = std::strtod(value.c_str(), nullptr);
    } else if (parse_value(argc, argv, i, "--mempool-cap", value)) {
      config.workload.mempool_capacity =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--fee-model", value)) {
      if (!workload::fee_model_from_string(value, &arrivals.fee_model)) {
        std::fprintf(stderr, "unknown fee model '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--max-retries", value)) {
      arrivals.max_retries =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (parse_value(argc, argv, i, "--retry-backoff", value)) {
      if (!parse_duration(value, arrivals.retry_backoff)) {
        std::fprintf(stderr, "bad duration '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--sandwich-attackers", value)) {
      config.workload.sandwich_attackers =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--victim-threshold", value)) {
      config.workload.sandwich.value_threshold =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      config.workload.open_loop = true;
    } else if (std::strcmp(argv[i], "--state-sync") == 0) {
      config.state_sync = true;
    } else if (std::strcmp(argv[i], "--delta-sync") == 0) {
      config.delta_sync = true;
    } else if (parse_value(argc, argv, i, "--client-shard", value)) {
      config.client_shard = std::strtoull(value.c_str(), nullptr, 10);
    } else if (parse_value(argc, argv, i, "--client-nodes", value)) {
      config.client_nodes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--memoize-verify") == 0) {
      config.memoize_verify = true;
    } else if (std::strcmp(argv[i], "--no-obfuscation") == 0) {
      config.obfuscate = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage();
      return 2;
    }
  }

  if (config.n <= 3 * config.f()) {
    std::fprintf(stderr, "need n > 3f\n");
    return 2;
  }
  if (config.protocol == harness::Protocol::kLyra && config.obfuscate &&
      config.n > 255) {
    std::fprintf(stderr,
                 "commit-reveal VSS shares live in GF(256), capping "
                 "obfuscated deployments at n = 255; pass --no-obfuscation "
                 "to run the ordering core at this scale\n");
    return 2;
  }
  if (config.measure_from >= config.duration) {
    std::fprintf(stderr, "measurement window is empty\n");
    return 2;
  }
  if (config.workload.open_loop &&
      (config.client_shard > 0 || config.client_nodes > 0)) {
    std::fprintf(stderr,
                 "--client-shard and --client-nodes shape closed-loop "
                 "clients; they do not combine with --open-loop\n");
    return 2;
  }
  if (config.workload.sandwich_attackers > 0 && !config.workload.open_loop) {
    std::fprintf(stderr, "--sandwich-attackers needs --open-loop\n");
    return 2;
  }
  if (config.workload.sandwich_attackers >= config.n) {
    std::fprintf(stderr, "--sandwich-attackers must stay below n\n");
    return 2;
  }
  for (std::size_t i = 0; i < std::min(silent + replayers, config.n); ++i) {
    config.byz.push_back({static_cast<NodeId>(i),
                          i < silent ? harness::ByzKind::kSilent
                                     : harness::ByzKind::kReplayInit});
  }
  const bool state_sync = harness::needs_state_sync(
      config.crashes, config.state_sync || config.delta_sync);
  std::string error;
  if (!harness::validate_faults(config.n, config.protocol, config.crashes,
                                config.byz, config.duration, state_sync,
                                config.workload.open_loop, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::printf("running %s: n=%zu f=%zu clients/node=%u batch=%zu "
              "lambda=%.1fms duration=%.1fs seed=%llu\n",
              harness::protocol_name(config.protocol), config.n, config.f(),
              config.clients_per_node, config.batch_size,
              to_ms(config.lambda), to_ms(config.duration) / 1000.0,
              static_cast<unsigned long long>(config.seed));
  std::fflush(stdout);

  const auto result = run_experiment(config);

  std::printf("\nthroughput        %10.0f tx/s\n", result.throughput_tps);
  std::printf("latency mean      %10.1f ms\n", result.mean_latency_ms);
  std::printf("latency p50       %10.1f ms\n", result.p50_latency_ms);
  std::printf("latency p99       %10.1f ms\n", result.p99_latency_ms);
  std::printf("committed txs     %10llu\n",
              static_cast<unsigned long long>(result.committed_txs));
  std::printf("prefix safety     %10s\n",
              result.prefix_consistent ? "ok" : "VIOLATED");
  if (config.protocol == harness::Protocol::kLyra) {
    std::printf("accept rate       %10.4f\n", result.validation_accept_rate);
    std::printf("decide rounds     %10.3f (max %.0f)\n",
                result.mean_decide_rounds, result.max_decide_rounds);
    std::printf("late accepts      %10llu\n",
                static_cast<unsigned long long>(result.late_accepts));
    if (!config.crashes.empty()) {
      std::printf("restarts          %10llu\n",
                  static_cast<unsigned long long>(result.restarts));
      std::printf("wal replayed      %10llu records\n",
                  static_cast<unsigned long long>(result.recovered_wal_records));
      std::printf("snapshots loaded  %10llu\n",
                  static_cast<unsigned long long>(result.recovered_snapshots));
      std::printf("recovery cpu      %10.2f ms\n", result.recovery_cpu_ms);
      std::printf("msgs dropped      %10llu\n",
                  static_cast<unsigned long long>(result.messages_dropped));
      std::printf("torn tails fixed  %10llu\n",
                  static_cast<unsigned long long>(result.torn_tail_repairs));
      std::printf("restarts refused  %10llu\n",
                  static_cast<unsigned long long>(result.refused_restarts));
    }
    if (state_sync) {
      std::printf("full state syncs  %10llu\n",
                  static_cast<unsigned long long>(result.full_state_syncs));
      if (config.delta_sync) {
        std::printf("delta state syncs %10llu\n",
                    static_cast<unsigned long long>(result.delta_state_syncs));
      }
      std::printf("sync chunks       %10llu (%llu rejected, %llu local)\n",
                  static_cast<unsigned long long>(result.sync_chunks_fetched),
                  static_cast<unsigned long long>(result.sync_chunks_rejected),
                  static_cast<unsigned long long>(result.sync_chunks_local));
      std::printf("sync bytes        %10llu (%llu saved locally)\n",
                  static_cast<unsigned long long>(result.sync_bytes_transferred),
                  static_cast<unsigned long long>(result.sync_bytes_local));
      std::printf("serves shed       %10llu\n",
                  static_cast<unsigned long long>(result.sync_serves_shed));
      std::printf("sync entries      %10llu\n",
                  static_cast<unsigned long long>(result.sync_entries_installed));
      std::printf("catch-up reveals  %10llu\n",
                  static_cast<unsigned long long>(result.catchup_reveals));
      std::printf("unrevealed left   %10llu\n",
                  static_cast<unsigned long long>(result.unrevealed_batches));
    }
  } else {
    std::printf("ts verifications  %10llu\n",
                static_cast<unsigned long long>(result.proof_verifications));
  }
  if (config.workload.open_loop) {
    std::printf("\n--- open-loop workload ---\n");
    std::printf("offered load      %10.0f tx/s (%llu arrivals)\n",
                result.offered_tps,
                static_cast<unsigned long long>(result.offered_txs));
    std::printf("goodput           %10.0f tx/s\n", result.goodput_tps);
    std::printf("backpressure      %10llu rejects to clients\n",
                static_cast<unsigned long long>(result.rejected_submits));
    std::printf("resubmissions     %10llu\n",
                static_cast<unsigned long long>(result.resubmissions));
    std::printf("terminal rejects  %10llu\n",
                static_cast<unsigned long long>(result.terminal_rejects));
    std::printf("mempool           %10llu refused / %llu evicted\n",
                static_cast<unsigned long long>(result.mempool_rejects),
                static_cast<unsigned long long>(result.mempool_evictions));
    if (config.workload.sandwich_attackers > 0) {
      std::printf("victims targeted  %10llu\n",
                  static_cast<unsigned long long>(result.victims_targeted));
      std::printf("front-runs won    %10llu\n",
                  static_cast<unsigned long long>(result.frontrun_successes));
      std::printf("sandwiches closed %10llu\n",
                  static_cast<unsigned long long>(result.sandwich_completes));
      std::printf("attack txs landed %10llu\n",
                  static_cast<unsigned long long>(result.attacks_committed));
      std::printf("extracted value   %10.1f\n", result.extracted_value);
      std::printf("adversary profit  %10.1f\n", result.adversary_profit);
    }
  }
  if (config.memoize_verify || replayers > 0) {
    std::printf("verify cache      %10llu hits / %llu misses\n",
                static_cast<unsigned long long>(result.verify_cache_hits),
                static_cast<unsigned long long>(result.verify_cache_misses));
    std::printf("replays sent      %10llu\n",
                static_cast<unsigned long long>(result.replays_sent));
  }
  return result.prefix_consistent ? 0 : 1;
}
