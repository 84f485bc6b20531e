#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/hash.hpp"
#include "lyra/messages.hpp"
#include "support/types.hpp"

namespace lyra::storage {

/// One entry of the committed prefix as persisted: identity and order
/// (the AcceptedEntry) plus the reveal-side durable facts.
struct LedgerEntryRecord {
  core::AcceptedEntry entry;
  std::uint32_t tx_count = 0;
  bool revealed = false;
  /// This node already broadcast its VSS decryption share for the entry.
  /// Persisted so a recovered node knows the share is out (it must treat
  /// the payload as public) without being able to forge an early release.
  bool share_released = false;
  /// Digest of the revealed payload (zero until revealed). Persisted so a
  /// recovered node can serve state-sync digest votes for entries whose
  /// payload bytes it no longer retains.
  crypto::Digest payload_digest{};

  friend bool operator==(const LedgerEntryRecord&,
                         const LedgerEntryRecord&) = default;
};

/// One client chunk carved into an own batch — the storage-side mirror of
/// BatchAssembler::Chunk, duplicated here so lyra_storage keeps depending
/// only on header-only core types.
struct OwnBatchChunk {
  NodeId client = kNoNode;
  std::uint32_t count = 0;
  TimeNs submitted_at = 0;

  friend bool operator==(const OwnBatchChunk&, const OwnBatchChunk&) = default;
};

/// A batch this node proposed whose clients it has not commit-notified
/// yet. Persisted so a restarted proposer can replay the notifications —
/// without them the strictly closed-loop client pools stall forever.
struct OwnBatchRecord {
  InstanceId inst;
  std::vector<OwnBatchChunk> chunks;

  friend bool operator==(const OwnBatchRecord&, const OwnBatchRecord&) = default;
};

/// Point-in-time image of a node's durable state: the accepted set A, the
/// committed prefix with watermark and extraction cursor, and the restart
/// counters. Peer status tables (R/S) are deliberately absent — they are
/// soft state that refills from the first heartbeat piggybacks, and the
/// quorum watermark rules keep them monotone (see docs/PROTOCOL.md,
/// "Durability & recovery").
struct Snapshot {
  NodeId node = kNoNode;
  std::uint64_t status_counter = 0;
  std::uint64_t next_proposal_index = 0;
  SeqNum committed = kNoSeq;
  SeqNum cursor_seq = kNoSeq;        // CommitState extraction cursor
  crypto::Digest cursor_id{};
  crypto::Digest chain_hash{};       // running hash of the committed prefix
  std::uint64_t wal_start_segment = 0;  // replay WAL from this segment on
  std::vector<core::AcceptedEntry> accepted;
  std::vector<LedgerEntryRecord> ledger;
  /// Own proposed batches still awaiting client notification.
  std::vector<OwnBatchRecord> own_batches;
};

/// Snapshot file body: magic, version, fields, trailing CRC32 over
/// everything before it. `decode_snapshot` returns false on any framing,
/// version, or checksum violation (recovery then falls back to an older
/// snapshot or to full-WAL replay).
Bytes encode_snapshot(const Snapshot& snap);
bool decode_snapshot(BytesView data, Snapshot& out);

/// Snapshot files are numbered like WAL segments; recovery loads the
/// newest one that decodes.
std::string snapshot_name(std::uint64_t index);
bool parse_snapshot_name(const std::string& name, std::uint64_t& index);

}  // namespace lyra::storage
