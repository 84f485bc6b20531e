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
// Flags take either --flag=value or --flag value; a value that does not
// parse whole exits 2. Durations accept "ms" and "s" suffixes (plain
// numbers are milliseconds).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

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
      "open-loop workload engine (docs/WORKLOAD.md); the flags after\n"
      "--open-loop need it:\n"
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

/// The whole of `text` as a T: "12" parses, "", "12x", "-1" and an
/// out-of-range value do not, and neither do negative or non-finite
/// floating-point values.
template <class T>
bool parse_number(const std::string& text, T& out) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || end != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v) || v < 0) return false;
  }
  out = v;
  return true;
}

/// "3s" -> 3 s, "250ms" -> 250 ms, "1500" -> 1500 ms.
bool parse_duration(const std::string& text, TimeNs& out) {
  const std::size_t digits = text.find_last_of("0123456789.") + 1;
  const std::string suffix = text.substr(digits);
  double v = 0;
  if (!parse_number(text.substr(0, digits), v)) return false;
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

void bad_value(const char* flag, const std::string& value) {
  std::fprintf(stderr, "bad value for %s: '%s'\n", flag, value.c_str());
}

/// Flags that shape the open-loop workload; each needs --open-loop.
constexpr const char* kOpenLoopFlags[] = {
    "--arrival-rate",  "--accounts",           "--zipf-s",
    "--burst-every",   "--burst-len",          "--burst-mult",
    "--mempool-cap",   "--fee-model",          "--max-retries",
    "--retry-backoff", "--sandwich-attackers", "--victim-threshold",
};

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.node.n = 16;
  std::size_t silent = 0;
  std::size_t replayers = 0;
  bool open_loop = false;
  std::size_t mempool_cap = 4096;
  const char* open_loop_flag = nullptr;  // the last open-loop-only flag
  workload::OpenLoopOptions& arrivals = config.workload.arrivals;
  // The window the last --crash-node opened; null (after saying so) if none.
  const auto last_crash = [&config](const char* flag) -> harness::CrashFault* {
    if (!config.crashes.empty()) return &config.crashes.back();
    std::fprintf(stderr, "%s needs a preceding --crash-node\n", flag);
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    for (const char* flag : kOpenLoopFlags) {
      const std::size_t len = std::strlen(flag);
      if (std::strncmp(argv[i], flag, len) == 0 &&
          (argv[i][len] == '\0' || argv[i][len] == '=')) {
        open_loop_flag = flag;
      }
    }
    std::string value;
    // Parse `value` into `out`, or say which flag had a bad value.
    const auto set = [&value](const char* flag, auto& out) {
      if (parse_number(value, out)) return true;
      bad_value(flag, value);
      return false;
    };
    const auto set_duration = [&value](const char* flag, TimeNs& out) {
      if (parse_duration(value, out)) return true;
      bad_value(flag, value);
      return false;
    };
    double real = 0;
    TimeNs t = 0;
    if (parse_value(argc, argv, i, "--protocol", value)) {
      if (!harness::protocol_from_string(value, config.protocol)) {
        std::fprintf(stderr, "unknown protocol '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--nodes", value)) {
      if (!set("--nodes", config.node.n)) return 2;
    } else if (parse_value(argc, argv, i, "--clients", value)) {
      if (!set("--clients", config.clients_per_node)) return 2;
    } else if (parse_value(argc, argv, i, "--duration-ms", value)) {
      if (!set_duration("--duration-ms", config.duration)) return 2;
    } else if (parse_value(argc, argv, i, "--measure-from-ms", value)) {
      if (!set_duration("--measure-from-ms", config.measure_from)) return 2;
    } else if (parse_value(argc, argv, i, "--batch-timeout", value)) {
      if (!set_duration("--batch-timeout", config.node.batch_timeout)) {
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--batch", value)) {
      if (!set("--batch", config.node.batch_size)) return 2;
    } else if (parse_value(argc, argv, i, "--heartbeat-ms", value)) {
      if (!set_duration("--heartbeat-ms", config.node.heartbeat_period)) {
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--lambda-ms", value)) {
      if (!set("--lambda-ms", real)) return 2;
      config.node.lambda = ms(real);
    } else if (parse_value(argc, argv, i, "--outstanding", value)) {
      if (!set("--outstanding", config.node.max_outstanding_proposals)) {
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--silent", value)) {
      if (!set("--silent", silent)) return 2;
    } else if (parse_value(argc, argv, i, "--replay-attackers", value)) {
      if (!set("--replay-attackers", replayers)) return 2;
    } else if (parse_value(argc, argv, i, "--bandwidth-gbps", value)) {
      if (!set("--bandwidth-gbps", real)) return 2;
      config.bandwidth_bytes_per_sec = real * 125e6;
    } else if (parse_value(argc, argv, i, "--seed", value)) {
      if (!set("--seed", config.seed)) return 2;
    } else if (parse_value(argc, argv, i, "--crash-node", value)) {
      harness::CrashFault c;
      if (!set("--crash-node", c.node)) return 2;
      config.crashes.push_back(c);
    } else if (parse_value(argc, argv, i, "--crash-at", value)) {
      harness::CrashFault* c = last_crash("--crash-at");
      if (c == nullptr || !set_duration("--crash-at", c->crash_at)) return 2;
    } else if (parse_value(argc, argv, i, "--restart-at", value)) {
      harness::CrashFault* c = last_crash("--restart-at");
      if (c == nullptr || !set_duration("--restart-at", c->restart_at)) {
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
      if (!set("--arrival-rate", arrivals.arrival_rate)) return 2;
    } else if (parse_value(argc, argv, i, "--accounts", value)) {
      if (!set("--accounts", arrivals.accounts)) return 2;
    } else if (parse_value(argc, argv, i, "--zipf-s", value)) {
      if (!set("--zipf-s", arrivals.zipf_s)) return 2;
    } else if (parse_value(argc, argv, i, "--burst-every", value)) {
      if (!set_duration("--burst-every", t)) return 2;
      arrivals.burst_every_ms = to_ms(t);
    } else if (parse_value(argc, argv, i, "--burst-len", value)) {
      if (!set_duration("--burst-len", t)) return 2;
      arrivals.burst_len_ms = to_ms(t);
    } else if (parse_value(argc, argv, i, "--burst-mult", value)) {
      if (!set("--burst-mult", arrivals.burst_mult)) return 2;
    } else if (parse_value(argc, argv, i, "--mempool-cap", value)) {
      if (!set("--mempool-cap", mempool_cap)) return 2;
    } else if (parse_value(argc, argv, i, "--fee-model", value)) {
      if (!workload::fee_model_from_string(value, &arrivals.fee_model)) {
        std::fprintf(stderr, "unknown fee model '%s'\n", value.c_str());
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--max-retries", value)) {
      if (!set("--max-retries", arrivals.max_retries)) return 2;
    } else if (parse_value(argc, argv, i, "--retry-backoff", value)) {
      if (!set_duration("--retry-backoff", arrivals.retry_backoff)) return 2;
    } else if (parse_value(argc, argv, i, "--sandwich-attackers", value)) {
      if (!set("--sandwich-attackers", config.workload.sandwich_attackers)) {
        return 2;
      }
    } else if (parse_value(argc, argv, i, "--victim-threshold", value)) {
      if (!set("--victim-threshold",
               config.workload.sandwich.value_threshold)) {
        return 2;
      }
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      open_loop = true;
    } else if (std::strcmp(argv[i], "--state-sync") == 0) {
      config.state_sync = true;
    } else if (std::strcmp(argv[i], "--delta-sync") == 0) {
      config.delta_sync = true;
    } else if (parse_value(argc, argv, i, "--client-shard", value)) {
      if (!set("--client-shard", config.client_shard)) return 2;
    } else if (parse_value(argc, argv, i, "--client-nodes", value)) {
      if (!set("--client-nodes", config.client_nodes)) return 2;
    } else if (std::strcmp(argv[i], "--no-obfuscation") == 0) {
      config.node.obfuscate = false;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      usage();
      return 2;
    }
  }

  if (config.node.batch_size == 0 ||
      config.node.max_outstanding_proposals == 0 || mempool_cap == 0) {
    std::fprintf(stderr,
                 "--batch, --outstanding and --mempool-cap must be at "
                 "least 1\n");
    return 2;
  }
  if (open_loop_flag != nullptr && !open_loop) {
    std::fprintf(stderr, "%s needs --open-loop\n", open_loop_flag);
    return 2;
  }
  if (open_loop) config.node.mempool_capacity = mempool_cap;
  if (config.node.n <= 3 * config.f()) {
    std::fprintf(stderr, "need n > 3f\n");
    return 2;
  }
  if (config.protocol == harness::Protocol::kLyra && config.node.obfuscate &&
      config.node.n > 255) {
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
  if (config.open_loop() &&
      (config.client_shard > 0 || config.client_nodes > 0)) {
    std::fprintf(stderr,
                 "--client-shard and --client-nodes shape closed-loop "
                 "clients; they do not combine with --open-loop\n");
    return 2;
  }
  if (config.workload.sandwich_attackers >= config.node.n) {
    std::fprintf(stderr, "--sandwich-attackers must stay below n\n");
    return 2;
  }
  for (std::size_t i = 0; i < std::min(silent + replayers, config.node.n);
       ++i) {
    config.byz.push_back({static_cast<NodeId>(i),
                          i < silent ? harness::ByzKind::kSilent
                                     : harness::ByzKind::kReplayInit});
  }
  const bool state_sync = harness::needs_state_sync(
      config.crashes, config.state_sync || config.delta_sync);
  std::string error;
  if (!harness::validate_faults(config.node.n, config.protocol,
                                config.crashes, config.byz, config.duration,
                                state_sync, config.open_loop(), error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }

  std::printf("running %s: n=%zu f=%zu clients/node=%u batch=%zu "
              "lambda=%.1fms duration=%.1fs seed=%llu\n",
              harness::protocol_name(config.protocol), config.node.n,
              config.f(), config.clients_per_node, config.node.batch_size,
              to_ms(config.node.lambda), to_ms(config.duration) / 1000.0,
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
      const statesync::StateSyncStats& sync = result.sync;
      std::printf("full state syncs  %10llu\n",
                  static_cast<unsigned long long>(result.full_state_syncs));
      if (config.delta_sync) {
        std::printf("delta state syncs %10llu\n",
                    static_cast<unsigned long long>(result.delta_state_syncs));
      }
      std::printf("sync chunks       %10llu (%llu rejected, %llu local)\n",
                  static_cast<unsigned long long>(sync.chunks_fetched),
                  static_cast<unsigned long long>(sync.chunks_rejected),
                  static_cast<unsigned long long>(sync.chunks_local));
      std::printf("sync bytes        %10llu (%llu saved locally)\n",
                  static_cast<unsigned long long>(sync.bytes_transferred),
                  static_cast<unsigned long long>(sync.bytes_local));
      std::printf("sync entries      %10llu\n",
                  static_cast<unsigned long long>(sync.entries_installed));
      std::printf("catch-up reveals  %10llu\n",
                  static_cast<unsigned long long>(sync.catchup_reveals));
      std::printf("unrevealed left   %10llu\n",
                  static_cast<unsigned long long>(result.unrevealed_batches));
    }
  } else {
    std::printf("ts verifications  %10llu\n",
                static_cast<unsigned long long>(result.proof_verifications));
  }
  if (config.open_loop()) {
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
      const workload::EconomicsReport& econ = result.economics;
      std::printf("victims targeted  %10llu\n",
                  static_cast<unsigned long long>(econ.victims_targeted));
      std::printf("front-runs won    %10llu\n",
                  static_cast<unsigned long long>(econ.frontrun_successes));
      std::printf("sandwiches closed %10llu\n",
                  static_cast<unsigned long long>(econ.sandwich_completes));
      std::printf("attack txs landed %10llu\n",
                  static_cast<unsigned long long>(econ.attack_committed));
      std::printf("extracted value   %10.1f\n", econ.extracted_value);
      std::printf("adversary profit  %10.1f\n", econ.adversary_profit);
    }
  }
  if (replayers > 0) {
    std::printf("replays sent      %10llu\n",
                static_cast<unsigned long long>(result.replays_sent));
  }
  return result.prefix_consistent ? 0 : 1;
}
