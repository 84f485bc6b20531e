#include "harness/lyra_cluster.hpp"

#include <cstdint>

#include "storage/wal.hpp"
#include "support/assert.hpp"

namespace lyra::harness {

const char* to_string(RestartOutcome outcome) {
  switch (outcome) {
    case RestartOutcome::kNone: return "none";
    case RestartOutcome::kLocalRecovery: return "local-recovery";
    case RestartOutcome::kStateSync: return "state-sync";
    case RestartOutcome::kDeltaSync: return "delta-sync";
    case RestartOutcome::kRefusedWalCorrupt: return "refused-wal-corrupt";
    case RestartOutcome::kRefusedSnapshotsCorrupt:
      return "refused-snapshots-corrupt";
    case RestartOutcome::kRefusedEmptyDisk: return "refused-empty-disk";
  }
  return "?";
}

LyraCluster::LyraCluster(LyraClusterOptions options)
    : Cluster(std::move(options)),
      disks_(options_.config.n),
      journals_(options_.config.n),
      recovery_info_(options_.config.n) {
  LYRA_ASSERT(!options_.state_sync || options_.durable_storage,
              "state_sync without durable_storage: nothing would trigger "
              "a transfer and synced state would not survive");
  for (NodeId i = 0; i < options_.config.n; ++i) {
    if (options_.durable_storage) {
      disks_[i] = std::make_unique<storage::MemDisk>();
      journals_[i] = std::make_unique<storage::DurableJournal>(
          disks_[i].get(), options_.journal);
      nodes_[i]->set_journal(journals_[i].get());
    }
    if (options_.state_sync) {
      nodes_[i]->enable_state_sync(options_.statesync_config);
    }
  }
}

void LyraCluster::crash_node(NodeId id) {
  LYRA_ASSERT(options_.durable_storage,
              "crash_node requires durable_storage (nothing to recover "
              "from otherwise)");
  LYRA_ASSERT(id < nodes_.size() && nodes_[id] != nullptr,
              "crash of a node that is not running");
  network_->detach(id);
  // ~Process cancels the node's timers and pending pump; deliveries still
  // in flight resolve through the network directory and drop.
  nodes_[id].reset();
  journals_[id].reset();
}

bool LyraCluster::restart_node(NodeId id) {
  LYRA_ASSERT(id < nodes_.size() && nodes_[id] == nullptr,
              "restart of a live node");
  storage::RecoveredState recovered = storage::recover(*disks_[id]);

  NodeRecoveryInfo& info = recovery_info_[id];
  info.happened = true;
  info.restarted_at = sim_.now();
  info.stats = recovered.stats;
  info.error.clear();

  // Triage the disk. Torn tails are repaired by recovery itself; anything
  // here means the local state cannot be trusted (or does not exist), so
  // the node either rebuilds from peers or stays down.
  RestartOutcome refusal = RestartOutcome::kNone;
  const char* why = nullptr;
  if (recovered.stats.wal_corrupt) {
    refusal = RestartOutcome::kRefusedWalCorrupt;
    why = "WAL corruption (torn tails are fine, CRC mismatches are not)";
  } else if (recovered.stats.snapshots_all_corrupt) {
    refusal = RestartOutcome::kRefusedSnapshotsCorrupt;
    why = "every snapshot on disk failed to decode; the WAL suffix alone "
          "would truncate the committed prefix";
  } else if (!recovered.found && disks_[id]->bytes_written() > 0) {
    // An empty disk that was never written is a legitimate cold start
    // (the node crashed before journaling anything); an empty disk whose
    // cumulative write counter is nonzero lost data it once held.
    refusal = RestartOutcome::kRefusedEmptyDisk;
    why = "disk lost previously written state";
  }

  bool full_sync = false;
  bool delta_sync = false;
  if (refusal != RestartOutcome::kNone) {
    if (!options_.state_sync) {
      info.outcome = refusal;
      info.error = why;
      return false;
    }
    if (refusal == RestartOutcome::kRefusedWalCorrupt &&
        options_.statesync_config.delta_transfer &&
        recovered.stats.snapshot_loaded) {
      // The WAL cannot be trusted, but the CRC-checked snapshot (plus the
      // clean replay prefix before the first bad frame) can: keep that
      // local prefix and let delta transfer pull only the missing suffix
      // from peers instead of wiping and re-fetching everything. Losing
      // the unreadable WAL tail is safe — anything this node ever acked
      // was committed by a quorum and sits below the negotiated cut.
      delta_sync = true;
    } else {
      // Local recovery is impossible but peers hold the state: discard the
      // disk (a half-trusted WAL must not shadow the transferred prefix)
      // and rejoin from scratch via full state transfer.
      disks_[id]->wipe();
      recovered = storage::RecoveredState{};
      full_sync = true;
    }
  }

  std::unique_ptr<core::LyraNode> node = build_node(id);
  node->restore(recovered);
  journals_[id] = std::make_unique<storage::DurableJournal>(
      disks_[id].get(), options_.journal);
  // Durable restart marker: lets the *next* recovery count incarnations
  // since the last snapshot and pick a fresh status-counter epoch.
  journals_[id]->restarted();
  node->set_journal(journals_[id].get());
  if (options_.state_sync) {
    node->enable_state_sync(options_.statesync_config);
  }

  info.outcome = full_sync    ? RestartOutcome::kStateSync
                 : delta_sync ? RestartOutcome::kDeltaSync
                              : RestartOutcome::kLocalRecovery;
  info.recovery_cpu = node->cpu_time_used();
  ++restarts_;

  network_->attach(node.get());
  nodes_[id] = std::move(node);
  nodes_[id]->on_start();
  if (options_.state_sync) {
    if (full_sync || delta_sync) {
      // Same protocol either way; with delta_transfer on, the manager
      // claims every chunk already covered by the kept local prefix and
      // only fetches the missing suffix over the network.
      nodes_[id]->statesync()->begin_full_sync();
    } else {
      // Local recovery may have left reveal holes (payload bytes are not
      // journaled); catch-up pulls them from peers.
      nodes_[id]->statesync()->begin_catchup();
    }
  }
  return true;
}

void LyraCluster::wipe_disk(NodeId id) {
  LYRA_ASSERT(options_.durable_storage, "wipe_disk requires durable_storage");
  LYRA_ASSERT(id < nodes_.size() && nodes_[id] == nullptr,
              "wipe the disk of a crashed node, not a live one");
  disks_[id]->wipe();
}

void LyraCluster::corrupt_wal(NodeId id) {
  LYRA_ASSERT(options_.durable_storage,
              "corrupt_wal requires durable_storage");
  LYRA_ASSERT(id < nodes_.size() && nodes_[id] == nullptr,
              "corrupt the WAL of a crashed node, not a live one");
  for (const std::string& name : disks_[id]->list()) {
    std::uint64_t index = 0;
    if (storage::parse_wal_segment_name(name, index)) {
      disks_[id]->corrupt(name, /*offset=*/12);  // inside the first frame
    }
  }
  // Bit rot in old segments can hide behind a snapshot: recovery only
  // replays segments >= the newest snapshot's replay point, and when the
  // post-snapshot suffix is empty nothing above touches the scanned range.
  // Plant a complete frame with a wrong CRC in a segment index far above
  // any replay point so the scan must hit mid-log corruption. Two frames
  // with different trailers for the same bytes guarantee at least one CRC
  // mismatch without recomputing the checksum here.
  Bytes frame = {0x04, 0x00, 0x00, 0x00, 0x01, 0xde, 0xad, 0xbe, 0xef};
  Bytes planted;
  for (std::uint8_t crc : {std::uint8_t{0x00}, std::uint8_t{0xff}}) {
    planted.insert(planted.end(), frame.begin(), frame.end());
    planted.insert(planted.end(), 4, crc);
  }
  disks_[id]->append(storage::wal_segment_name(9999999999ull), planted);
}

void LyraCluster::schedule_crash_restart(NodeId id, TimeNs crash_at,
                                         TimeNs restart_at, bool wipe,
                                         bool corrupt) {
  LYRA_ASSERT(crash_at < restart_at, "restart must come after the crash");
  sim_.schedule_at(crash_at, [this, id] {
    if (node_alive(id)) crash_node(id);
  });
  const TimeNs window = restart_at - crash_at;
  if (wipe) {
    sim_.schedule_at(crash_at + window * 2 / 5, [this, id] {
      if (!node_alive(id)) wipe_disk(id);
    });
  }
  if (corrupt) {
    sim_.schedule_at(crash_at + window / 2, [this, id] {
      if (!node_alive(id)) corrupt_wal(id);
    });
  }
  sim_.schedule_at(restart_at, [this, id] {
    if (!node_alive(id)) restart_node(id);
  });
}

bool LyraCluster::ledgers_prefix_consistent() const {
  return prefix_consistent(
      [](const core::CommittedBatch& a, const core::CommittedBatch& b) {
        return a.seq == b.seq && a.cipher_id == b.cipher_id;
      });
}

statesync::StateSyncStats LyraCluster::statesync_totals() const {
  statesync::StateSyncStats total;
  for (const auto& n : nodes_) {
    if (n == nullptr || n->statesync() == nullptr) continue;
    const statesync::StateSyncStats& s = n->statesync()->stats();
    total.syncs_started += s.syncs_started;
    total.syncs_completed += s.syncs_completed;
    total.manifest_rounds += s.manifest_rounds;
    total.chunks_fetched += s.chunks_fetched;
    total.chunks_local += s.chunks_local;
    total.chunks_rejected += s.chunks_rejected;
    total.chunk_timeouts += s.chunk_timeouts;
    total.bytes_transferred += s.bytes_transferred;
    total.bytes_local += s.bytes_local;
    total.entries_installed += s.entries_installed;
    total.catchup_reveals += s.catchup_reveals;
    total.catchup_rejections += s.catchup_rejections;
    total.peers_demoted += s.peers_demoted;
    total.installs_refused += s.installs_refused;
  }
  return total;
}

std::uint64_t LyraCluster::total_late_accepts() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    if (n != nullptr) total += n->commit().state().late_accepts();
  }
  return total;
}

}  // namespace lyra::harness
