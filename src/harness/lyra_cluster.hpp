#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/client_pool.hpp"
#include "crypto/keys.hpp"
#include "lyra/lyra_node.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"
#include "storage/journal.hpp"
#include "storage/recovery.hpp"
#include "workload/open_loop.hpp"

namespace lyra::harness {

/// Factory for one consensus node — override to drop Byzantine variants
/// into chosen slots.
using NodeFactory = std::function<std::unique_ptr<core::LyraNode>(
    sim::Simulation*, net::Network*, NodeId, const core::Config&,
    const crypto::KeyRegistry*)>;

struct LyraClusterOptions {
  core::Config config;
  net::Topology topology;  // >= config.n placements; extras host clients
  std::uint64_t seed = 1;
  NodeFactory node_factory;  // default: correct LyraNode

  /// Give every consensus node an in-memory disk with a WAL+snapshot
  /// journal. Required for crash_node()/restart_node(); off by default so
  /// benches keep the volatile fast path.
  bool durable_storage = false;
  storage::DurableJournal::Options journal;

  /// Give every consensus node a StateSyncManager (src/statesync): nodes
  /// serve peer sync requests, a restarted node catches up on reveal holes,
  /// and a node whose disk is unrecoverable rejoins via full state
  /// transfer instead of staying down. Requires durable_storage.
  bool state_sync = false;
  statesync::StateSyncConfig statesync_config;
};

/// How a restart_node() call resolved.
enum class RestartOutcome {
  kNone,           ///< never restarted
  kLocalRecovery,  ///< disk state decoded; rejoined via the resync gate
  kStateSync,      ///< disk unusable; wiped and rebuilt via peer transfer
  /// WAL unusable but a snapshot decoded and delta transfer is on: kept
  /// the snapshot prefix and pulled only the missing suffix from peers.
  kDeltaSync,
  // Refusals (restart_node returned false; node stays down). Only
  // reachable with state_sync off — with it on these become kStateSync.
  kRefusedWalCorrupt,        ///< mid-log CRC failure
  kRefusedSnapshotsCorrupt,  ///< snapshots exist but none decodes
  kRefusedEmptyDisk,         ///< nothing on disk to restart from
};

const char* to_string(RestartOutcome outcome);

/// What a node's last restart cost: recovery stats from disk plus the
/// simulated CPU the node spent rebuilding its in-memory state.
struct NodeRecoveryInfo {
  bool happened = false;
  RestartOutcome outcome = RestartOutcome::kNone;
  std::string error;  ///< non-empty iff the restart was refused
  TimeNs restarted_at = 0;
  TimeNs recovery_cpu = 0;
  storage::RecoveryStats stats;
};

/// Assembles a full Lyra deployment on the simulator: key registry,
/// network, consensus nodes, and optional closed-loop client pools.
class LyraCluster {
 public:
  explicit LyraCluster(LyraClusterOptions options);

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return *network_; }
  const crypto::KeyRegistry& registry() const { return registry_; }
  core::LyraNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  const core::Config& config() const { return options_.config; }

  /// Attaches a closed-loop client pool targeting `target`. The pool's
  /// process id is the next free id; its topology slot must exist.
  client::ClientPool& add_client_pool(NodeId target, std::uint32_t width,
                                      TimeNs start_at, TimeNs measure_from,
                                      TimeNs measure_to);

  /// Aggregated form: one pool process drives `width` logical clients at
  /// *each* of `targets` through shared timers — O(1) simulation objects
  /// per shard instead of per node, which is what makes n=300–1000
  /// sweeps affordable. Consumes a single topology slot (place shards so
  /// that slot shares a region with the targets to preserve latencies).
  client::ClientPool& add_client_pool(std::vector<NodeId> targets,
                                      std::uint32_t width, TimeNs start_at,
                                      TimeNs measure_from, TimeNs measure_to);

  /// Attaches an open-loop traffic source targeting `target`
  /// (docs/WORKLOAD.md). Arrival and field streams derive from `run_seed`
  /// and the pool's process id, so pool placement order does not matter.
  workload::OpenLoopClientPool& add_open_loop_pool(
      NodeId target, const workload::OpenLoopOptions& options,
      std::uint64_t run_seed);

  /// Registers an externally-constructed process (attacker, bespoke
  /// client) with the network.
  void adopt_process(std::unique_ptr<sim::Process> process);

  NodeId next_process_id() const { return next_id_; }

  /// Calls on_start on every process. Must run before the simulation.
  void start();

  /// Returns the number of events executed (perf-harness metric).
  std::uint64_t run_for(TimeNs duration) {
    return sim_.run_until(sim_.now() + duration);
  }

  // --- crash / restart (requires durable_storage) ---

  /// Tears the node down mid-run: detaches it from the network (in-flight
  /// and future messages to it drop) and destroys the process, which
  /// cancels its timers. The node's disk survives for restart_node().
  void crash_node(NodeId id);

  /// Rebuilds the node from its disk (snapshot + WAL suffix), re-attaches
  /// it, and starts it. The node re-probes distances and rejoins the
  /// Commit protocol from its recovered state. When the disk is
  /// unrecoverable (corrupt WAL, undecodable snapshots, or wiped) the
  /// node instead rejoins via peer state transfer if `state_sync` is on;
  /// otherwise the restart is refused: returns false, the node stays
  /// down, and recovery_info(id) carries the outcome and error.
  bool restart_node(NodeId id);

  /// Schedules a crash_node/restart_node pair at absolute simulation
  /// times. Call before or during the run; restart_at must be > crash_at.
  void schedule_crash_restart(NodeId id, TimeNs crash_at, TimeNs restart_at);

  // --- disk fault injection (node must be down) ---

  /// Total media loss: every file on the node's disk is deleted.
  void wipe_disk(NodeId id);

  /// Bit rot inside the first frame of every WAL segment. With two or
  /// more journaled records this is a mid-log CRC failure (recovery
  /// escalates); a single-record WAL degrades to a tolerated torn tail.
  void corrupt_wal(NodeId id);

  bool node_alive(NodeId id) const { return nodes_.at(id) != nullptr; }
  storage::MemDisk* disk(NodeId id) { return disks_.at(id).get(); }
  const NodeRecoveryInfo& recovery_info(NodeId id) const {
    return recovery_info_.at(id);
  }
  std::uint64_t restarts() const { return restarts_; }

  /// StateSyncStats summed over the live nodes (zeroes when state_sync is
  /// off). Per-node figures: node(id).statesync()->stats().
  statesync::StateSyncStats statesync_totals() const;

  // --- cross-node invariants (used by tests) ---

  /// SMR-Safety: every pair of ledgers must be prefix-related on
  /// (seq, cipher_id).
  bool ledgers_prefix_consistent() const;

  /// Shortest ledger across correct nodes.
  std::size_t min_ledger_length() const;
  std::size_t max_ledger_length() const;

  /// Sum of late_accepts across nodes (must be 0, Lemma 6 completeness).
  std::uint64_t total_late_accepts() const;

  const std::vector<std::unique_ptr<client::ClientPool>>& pools() const {
    return pools_;
  }
  const std::vector<std::unique_ptr<workload::OpenLoopClientPool>>&
  open_pools() const {
    return open_pools_;
  }

 private:
  std::unique_ptr<core::LyraNode> build_node(NodeId id);

  LyraClusterOptions options_;
  sim::Simulation sim_;
  crypto::KeyRegistry registry_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<core::LyraNode>> nodes_;
  std::vector<std::unique_ptr<client::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::OpenLoopClientPool>> open_pools_;
  std::vector<std::unique_ptr<sim::Process>> extra_processes_;
  // Per consensus node; disks outlive crashes, journals are rebuilt on
  // restart (a journal must never append to a torn pre-crash segment).
  std::vector<std::unique_ptr<storage::MemDisk>> disks_;
  std::vector<std::unique_ptr<storage::Journal>> journals_;
  std::vector<NodeRecoveryInfo> recovery_info_;
  std::uint64_t restarts_ = 0;
  NodeId next_id_;
  bool started_ = false;
};

}  // namespace lyra::harness
