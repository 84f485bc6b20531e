#pragma once

#include <cstdint>
#include <vector>

#include "storage/disk.hpp"
#include "storage/journal.hpp"
#include "storage/snapshot.hpp"

namespace lyra::storage {

struct RecoveryStats {
  bool snapshot_loaded = false;
  std::uint64_t snapshots_discarded = 0;  ///< newer snapshots that failed CRC
  std::uint64_t replayed_records = 0;     ///< WAL records applied on top
  std::uint64_t replayed_bytes = 0;
  std::uint64_t wal_segments = 0;
  std::uint64_t torn_tail_bytes = 0;      ///< tolerated torn tail, if any
  bool wal_corrupt = false;               ///< mid-log CRC failure (escalate)
  /// Snapshots exist on disk but none decodes. The WAL prefix they covered
  /// is GC'd, so proceeding from an empty base would silently truncate the
  /// committed prefix — escalate instead of trusting `found`.
  bool snapshots_all_corrupt = false;
};

/// A node's durable state as reconstructed from disk: the newest decodable
/// snapshot with the WAL suffix already folded in. `accepted` is the full
/// accepted set A in (seq, cipher_id) order; `ledger` is the committed
/// prefix in commit order. Both are ready for LyraNode::restore().
///
/// Recovery invariant (see docs/PROTOCOL.md): every state change is
/// WAL-appended in the same simulated instant it happens (write-ahead), so
/// `ledger` here is a superset of any committed prefix the pre-crash node
/// ever exposed — a recovered node can only be behind its peers, never
/// inconsistent with its own past.
struct RecoveredState {
  bool found = false;  ///< anything at all was on the disk
  std::uint64_t status_counter = 0;
  /// Restart markers (kRestart) in the replayed WAL suffix: incarnations
  /// that recovered since the base snapshot. Restarts before the snapshot
  /// are already baked into its status_counter.
  std::uint64_t restarts = 0;
  std::uint64_t next_proposal_index = 0;
  std::vector<core::AcceptedEntry> accepted;
  std::vector<LedgerEntryRecord> ledger;
  /// Own proposed batches journaled but possibly never client-notified;
  /// the node filters out the already-revealed ones on restore.
  std::vector<OwnBatchRecord> own_batches;
  RecoveryStats stats;
};

/// Loads the newest valid snapshot (falling back through invalid ones, then
/// to an empty base) and replays the WAL suffix on top.
RecoveredState recover(const MemDisk& disk);

}  // namespace lyra::storage
