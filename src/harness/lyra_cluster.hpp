#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "lyra/lyra_node.hpp"
#include "storage/disk.hpp"
#include "storage/journal.hpp"
#include "storage/recovery.hpp"

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

/// A Lyra deployment (Cluster) plus what only Lyra has: durable storage,
/// crash/restart, disk fault injection and state sync.
class LyraCluster : public Cluster<core::LyraNode, LyraClusterOptions> {
 public:
  explicit LyraCluster(LyraClusterOptions options);

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

  /// Sum of late_accepts across nodes (must be 0, Lemma 6 completeness).
  std::uint64_t total_late_accepts() const;

 private:
  // Per consensus node; disks outlive crashes, journals are rebuilt on
  // restart (a journal must never append to a torn pre-crash segment).
  std::vector<std::unique_ptr<storage::MemDisk>> disks_;
  std::vector<std::unique_ptr<storage::Journal>> journals_;
  std::vector<NodeRecoveryInfo> recovery_info_;
  std::uint64_t restarts_ = 0;
};

}  // namespace lyra::harness
