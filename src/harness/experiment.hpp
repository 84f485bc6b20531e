#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attacks/sandwich.hpp"
#include "harness/faults.hpp"
#include "lyra/config.hpp"
#include "statesync/manager.hpp"
#include "support/types.hpp"
#include "workload/economics.hpp"
#include "workload/open_loop.hpp"

namespace lyra::harness {

/// One benchmark run: a protocol, a cluster size, and a closed-loop client
/// load, on the paper's 3-continent topology (§VI-A).
struct RunConfig {
  Protocol protocol = Protocol::kLyra;

  /// The protocol parameters (paper defaults), declared once: Pompē runs
  /// read the core::NodeConfig part. `node.f` is not read, f() derives it
  /// from n. Δ is 1.2x the longest one-way leg of the topology. A run is
  /// open-loop iff `node.mempool_capacity` > 0 (open_loop()). Payloads are
  /// retained only where the faults or the open loop need them
  /// (configure_faults turns it on).
  core::Config node = [] {
    core::Config c;
    c.delta = ms(160);
    c.retain_payloads = false;
    return c;
  }();

  std::uint32_t clients_per_node = 1600;  // closed-loop width per node

  /// Aggregated clients: 0 keeps one closed-loop pool process per node
  /// (the legacy shape, byte-identical to all recorded runs). k > 0 groups
  /// same-region nodes into shards of up to k and drives each shard's
  /// clients from ONE pool process (client::ClientPool aggregated form) —
  /// O(n/k) simulation objects instead of O(n), which is what makes
  /// n = 300–1000 sweeps affordable. Shards never span regions, so the
  /// client-to-node latency distribution is unchanged. Closed-loop runs
  /// only.
  std::size_t client_shard = 0;

  /// Cap on how many nodes host clients: 0 gives every node a client pool
  /// (the legacy shape); k > 0 attaches pools to nodes 0..k-1 only (the
  /// round-robin region placement keeps the subset spread across all
  /// three continents). Every instance costs O(n^2) consensus traffic and
  /// each client-bearing node proposes, so a cluster-size sweep that only
  /// needs a load *anchor* — not the saturation knee — caps the proposer
  /// set to keep wall-clock cost from growing as n^3. Closed-loop runs
  /// only.
  std::size_t client_nodes = 0;

  TimeNs duration = ms(6000);
  TimeNs measure_from = ms(2500);
  TimeNs client_start = ms(900);  // after Lyra's distance warm-up
  std::uint64_t seed = 42;

  /// Byzantine slots (Lyra only). Silent slots get no clients and report
  /// no stats; replay-init slots run the full protocol but also
  /// re-broadcast old INITs after correct processes have GC'd them,
  /// forcing repeat signature verifications.
  std::vector<ByzFault> byz;

  /// Effective per-node egress (DESIGN.md: sustained cross-continent TCP
  /// goodput, not the NIC line rate).
  double bandwidth_bytes_per_sec = 125e6;

  /// Crash-restart schedule (Lyra only; see CrashFault). Any crash
  /// enables durable storage; a wiped or corrupted disk forces state sync.
  std::vector<CrashFault> crashes;

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

  /// Open-loop workload engine (docs/WORKLOAD.md), read only when
  /// open_loop(): with no mempool the runs are the closed-loop harness
  /// above.
  struct Workload {
    /// One traffic source per node (offered = n * arrivals.arrival_rate);
    /// its start and measurement times come from the run window.
    workload::OpenLoopOptions arrivals;
    /// Economic adversary: this many nodes (highest ids) run the sandwich
    /// variant that bids fees against observed high-value victims.
    std::size_t sandwich_attackers = 0;
    attacks::SandwichOptions sandwich;
    workload::EconomicsParams economics;
  };
  Workload workload;

  std::size_t f() const { return (node.n - 1) / 3; }
  bool open_loop() const { return node.mempool_capacity > 0; }
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

  std::uint64_t replays_sent = 0;  // re-presented INITs (replay-init slots)

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

  /// State-sync counters summed over all nodes (state_sync runs only).
  statesync::StateSyncStats sync;
  std::uint64_t unrevealed_batches = 0;  // reveal holes left at run end

  // Open-loop workload runs (RunConfig::Workload; zero otherwise).
  double offered_tps = 0.0;  // arrivals generated inside the run
  double goodput_tps = 0.0;  // committed_in_window / window (== throughput)
  std::uint64_t offered_txs = 0;
  std::uint64_t rejected_submits = 0;   // backpressure signals to clients
  std::uint64_t terminal_rejects = 0;   // dropped after max_retries
  std::uint64_t resubmissions = 0;      // client resends (closed loop too)
  std::uint64_t mempool_evictions = 0;  // outbid and displaced
  std::uint64_t mempool_rejects = 0;    // refused at admission (full)

  /// Economic front-running metric (workload.sandwich_attackers > 0),
  /// scored on the first non-silent node's ledger (open-loop runs only).
  workload::EconomicsReport economics;
};

class LyraCluster;
class PompeCluster;

/// Caller code around one run: `before_start` runs once the client pools
/// and the crash schedule are placed, `after_run` once the run is over and
/// its RunResult collected. The fuzz runner adds its adversary, workload
/// faults and invariant sweeps this way.
template <class Cluster>
struct RunHooks {
  std::function<void(Cluster&)> before_start;
  std::function<void(Cluster&)> after_run;
};

/// Executes one run and aggregates client-side measurements.
RunResult run_experiment(const RunConfig& config);
/// The same run with hooks; `config.protocol` must name the cluster type.
RunResult run_experiment(const RunConfig& config,
                         const RunHooks<LyraCluster>& hooks);
RunResult run_experiment(const RunConfig& config,
                         const RunHooks<PompeCluster>& hooks);

/// Crude capacity estimate for Pompē at n nodes (tx/s), used by benches to
/// pick client widths around the saturation knee: the leader's egress
/// serializes every batch to every replica; small clusters are bounded by
/// the pipeline rate instead.
double pompe_capacity_estimate(std::size_t n, std::size_t batch_size,
                               double bandwidth_bytes_per_sec);

}  // namespace lyra::harness
