#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hpp"
#include "workload/samplers.hpp"

namespace lyra::harness {

/// One benchmark run: a protocol, a cluster size, and a closed-loop client
/// load, on the paper's 3-continent topology (§VI-A).
struct RunConfig {
  enum class Protocol { kLyra, kPompe };

  Protocol protocol = Protocol::kLyra;
  std::size_t n = 4;
  std::uint32_t clients_per_node = 1600;  // closed-loop width per node

  /// Aggregated clients: 0 keeps one closed-loop pool process per node
  /// (the legacy shape, byte-identical to all recorded runs). k > 0 groups
  /// same-region nodes into shards of up to k and drives each shard's
  /// clients from ONE pool process (client::ClientPool aggregated form) —
  /// O(n/k) simulation objects instead of O(n), which is what makes
  /// n = 300–1000 sweeps affordable. Shards never span regions, so the
  /// client-to-node latency distribution is unchanged. Closed-loop runs
  /// only (ignored with workload.open_loop).
  std::size_t client_shard = 0;

  /// Cap on how many nodes host clients: 0 gives every node a client pool
  /// (the legacy shape); k > 0 attaches pools to nodes 0..k-1 only (the
  /// round-robin region placement keeps the subset spread across all
  /// three continents). Every instance costs O(n^2) consensus traffic and
  /// each client-bearing node proposes, so a cluster-size sweep that only
  /// needs a load *anchor* — not the saturation knee — caps the proposer
  /// set to keep wall-clock cost from growing as n^3. Closed-loop runs
  /// only (ignored with workload.open_loop).
  std::size_t client_nodes = 0;

  TimeNs duration = ms(6000);
  TimeNs measure_from = ms(2500);
  TimeNs client_start = ms(900);  // after Lyra's distance warm-up
  std::uint64_t seed = 42;

  // Protocol knobs (paper defaults).
  std::size_t batch_size = 800;
  TimeNs batch_timeout = ms(50);   // partial-batch proposal pacing
  /// Status-heartbeat period (lyra::Config::heartbeat_period). Each beat
  /// is an O(n) broadcast from every node, so idle-cluster traffic is
  /// n^2/period — the big-n scaling sweeps stretch it to stay affordable.
  TimeNs heartbeat = ms(25);
  SeqNum lambda = ms(5);
  bool obfuscate = true;                 // Lyra commit-reveal on/off
  std::size_t max_outstanding = 3;       // Lyra proposal pacing
  std::size_t byzantine_silent = 0;      // crash-faulty Lyra nodes

  /// Byzantine re-presentation traffic (Lyra only): this many nodes run
  /// the full protocol but also re-broadcast old INITs after correct
  /// processes have GC'd them, forcing repeat signature verifications.
  std::size_t replay_attackers = 0;

  /// Cache verification verdicts by (signer, value, signature) identity so
  /// re-presented Byzantine traffic verifies once (lyra::Config::
  /// memoize_verification / PompeConfig::memoize_verification).
  bool memoize_verify = false;

  /// Effective per-node egress (DESIGN.md: sustained cross-continent TCP
  /// goodput, not the NIC line rate).
  double bandwidth_bytes_per_sec = 125e6;

  /// Crash-restart schedule (Lyra only). Each entry tears the node down at
  /// `crash_at` and rebuilds it from its WAL + snapshots at `restart_at`
  /// (absolute run times). Non-empty schedules enable durable storage.
  /// The optional fault injectors make local recovery impossible, so the
  /// node comes back via peer state transfer (both force state_sync on):
  /// `wipe_disk_at` deletes every file on the node's disk at that time
  /// (crash_at < wipe_disk_at < restart_at); `corrupt_wal` flips a byte in
  /// each WAL segment midway between crash and restart.
  struct CrashRestart {
    NodeId node = 0;
    TimeNs crash_at = 0;
    TimeNs restart_at = 0;
    TimeNs wipe_disk_at = 0;  ///< 0 = no wipe
    bool corrupt_wal = false;
  };
  std::vector<CrashRestart> crash_restarts;

  /// Enable the statesync subsystem on every node (src/statesync):
  /// restarted nodes catch up on reveal holes from peers, and nodes with
  /// unrecoverable disks rejoin via full state transfer.
  bool state_sync = false;

  /// Delta state transfer (statesync::StateSyncConfig::delta_transfer): a
  /// restarting node whose WAL is corrupt but whose newest snapshot still
  /// decodes keeps that local prefix and fetches only the missing suffix
  /// from peers instead of wiping and re-transferring everything. Implies
  /// state_sync.
  bool delta_sync = false;

  /// Open-loop workload engine (docs/WORKLOAD.md). Off by default:
  /// open_loop=false leaves every node's mempool disabled and the runs
  /// byte-identical to the closed-loop harness above.
  struct Workload {
    bool open_loop = false;
    double arrival_rate = 200.0;  ///< tx/s per node (offered = n * rate)
    double burst_every_ms = 0;    ///< 0 = no burst episodes
    double burst_len_ms = 250.0;
    double burst_mult = 4.0;
    std::uint64_t accounts = 100000;
    double zipf_s = 1.0;
    std::size_t mempool_capacity = 4096;  ///< per-node bound
    workload::FeeModel fee_model = workload::FeeModel::kUniform;
    std::uint64_t base_fee = 100;
    std::uint64_t base_value = 1000;
    double value_sigma = 1.5;
    std::uint32_t max_retries = 6;
    TimeNs retry_backoff = ms(40);
    /// Economic adversary: this many nodes (highest ids) run the sandwich
    /// variant that bids fees against observed high-value victims.
    std::size_t sandwich_attackers = 0;
    std::uint64_t victim_value_threshold = 5000;
    std::uint32_t slippage_bps = 50;
  };
  Workload workload;

  std::size_t f() const { return (n - 1) / 3; }
  bool wants_state_sync() const {
    if (state_sync || delta_sync) return true;
    for (const CrashRestart& cr : crash_restarts) {
      if (cr.wipe_disk_at > 0 || cr.corrupt_wal) return true;
    }
    return false;
  }
};

struct RunResult {
  // Engine-side metrics (perf harness): how much simulator work the run
  // performed and what it cost in host time.
  std::uint64_t events_executed = 0;
  double host_seconds = 0.0;  // wall-clock time of the event loop
  double sim_seconds = 0.0;   // simulated duration covered

  double mean_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double throughput_tps = 0.0;
  std::uint64_t committed_txs = 0;
  bool prefix_consistent = false;
  std::uint64_t late_accepts = 0;        // Lyra only
  double mean_decide_rounds = 0.0;       // Lyra only
  double max_decide_rounds = 0.0;        // Lyra only
  double validation_accept_rate = 1.0;   // Lyra only
  std::uint64_t proof_verifications = 0; // Pompē only

  // Verification memoization (RunConfig::memoize_verify) and the replay
  // traffic it absorbs; hits/misses stay zero with the cache off.
  std::uint64_t verify_cache_hits = 0;
  std::uint64_t verify_cache_misses = 0;
  std::uint64_t replays_sent = 0;  // re-presented INITs (replay_attackers)

  // Crash-restart runs (empty schedule leaves these zero):
  std::uint64_t restarts = 0;
  std::uint64_t recovered_wal_records = 0;  // replayed across all restarts
  std::uint64_t recovered_snapshots = 0;    // restarts that found a snapshot
  double recovery_cpu_ms = 0.0;             // simulated CPU rebuilding state
  std::uint64_t messages_dropped = 0;       // sent to, or in flight to,
                                            // a crashed node
  std::uint64_t torn_tail_repairs = 0;      // restarts that truncated a tail
  std::uint64_t refused_restarts = 0;       // unrecoverable, no state sync
  std::uint64_t full_state_syncs = 0;       // rebuilt entirely from peers
  std::uint64_t delta_state_syncs = 0;      // kept local prefix, pulled suffix

  // State-sync counters, summed over all nodes (state_sync runs only):
  std::uint64_t sync_chunks_fetched = 0;
  std::uint64_t sync_chunks_local = 0;      // satisfied from local disk
  std::uint64_t sync_chunks_rejected = 0;
  std::uint64_t sync_bytes_transferred = 0;
  std::uint64_t sync_bytes_local = 0;       // bytes NOT moved over the wire
  std::uint64_t sync_serves_shed = 0;       // chunk serves dropped at the cap
  std::uint64_t sync_entries_installed = 0;
  std::uint64_t catchup_reveals = 0;
  std::uint64_t unrevealed_batches = 0;  // reveal holes left at run end

  // Open-loop workload runs (RunConfig::Workload; zero otherwise).
  double offered_tps = 0.0;  // arrivals generated inside the run
  double goodput_tps = 0.0;  // committed_in_window / window (== throughput)
  std::uint64_t offered_txs = 0;
  std::uint64_t rejected_submits = 0;   // backpressure signals to clients
  std::uint64_t terminal_rejects = 0;   // dropped after max_retries
  std::uint64_t resubmissions = 0;
  std::uint64_t mempool_evictions = 0;  // outbid and displaced
  std::uint64_t mempool_rejects = 0;    // refused at admission (full)

  // Economic front-running metric (workload.sandwich_attackers > 0).
  std::uint64_t victims_targeted = 0;
  std::uint64_t frontrun_successes = 0;
  std::uint64_t sandwich_completes = 0;
  std::uint64_t attacks_committed = 0;
  double extracted_value = 0.0;   // value units taken from victims
  double adversary_profit = 0.0;  // extracted minus fee spend
  double victim_slippage = 0.0;
};

/// Executes one run and aggregates client-side measurements.
RunResult run_experiment(const RunConfig& config);

/// Crude capacity estimate for Pompē at n nodes (tx/s), used by benches to
/// pick client widths around the saturation knee: the leader's egress
/// serializes every batch to every replica; small clusters are bounded by
/// the pipeline rate instead.
double pompe_capacity_estimate(std::size_t n, std::size_t batch_size,
                               double bandwidth_bytes_per_sec);

const char* protocol_name(RunConfig::Protocol p);

}  // namespace lyra::harness
