#pragma once

#include <cstdint>

#include "storage/snapshot.hpp"
#include "storage/wal.hpp"

namespace lyra::storage {

/// WAL record types written by the journal (see wal.hpp for framing).
enum class WalRecordType : std::uint8_t {
  kAccepted = 1,   ///< entry joined the accepted set A
  kCommitted = 2,  ///< entry appended to the committed prefix (ledger)
  kRevealed = 3,   ///< committed entry's payload was reconstructed
  kProposal = 4,   ///< own proposal index consumed (never reuse instance ids)
  kRestart = 5,    ///< a recovered incarnation began (status-epoch marker)
  kOwnBatch = 6,   ///< own batch proposed; clients to notify on its commit
};

struct DurableJournalStats {
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t snapshots_written = 0;
};

/// The node's durability backend: a WAL + snapshot log over a MemDisk.
/// LyraNode calls these hooks at the exact points where its logical state
/// machine advances (a volatile node holds no journal). Every hook appends
/// one framed record synchronously (write-ahead: the record is durable in
/// the same simulated instant the state change happens, the discrete-event
/// equivalent of fsync-before-ack). Snapshots are cut every
/// `snapshot_every_committed` ledger appends; each snapshot seals the
/// current WAL segment and records the suffix start. GC keeps the two
/// newest snapshots (the older one backs recovery's fallback path should
/// the newer fail its CRC) and drops WAL segments below what the oldest
/// retained snapshot needs.
class DurableJournal final {
 public:
  struct Options {
    std::uint64_t snapshot_every_committed = 64;
    WalWriter::Options wal;
  };

  /// Continues an existing log on `disk` (post-restart) or starts a fresh
  /// one. `disk` must outlive the journal.
  explicit DurableJournal(MemDisk* disk);
  DurableJournal(MemDisk* disk, Options options);

  void accepted(const core::AcceptedEntry& entry);
  void committed(const core::AcceptedEntry& entry, std::uint32_t tx_count);
  /// `payload_digest`/`tx_count` let recovery serve state-sync digest
  /// votes and repair hole-committed entries (committed with tx_count 0
  /// before the payload was known).
  void revealed(const crypto::Digest& cipher_id,
                const crypto::Digest& payload_digest = crypto::Digest{},
                std::uint32_t tx_count = 0);
  /// Own proposal index consumed; recovery never hands it out again.
  void proposal(std::uint64_t index);
  /// An own batch was proposed; its client chunks must survive a crash so
  /// a restarted proposer can still commit-notify them.
  void own_batch(const OwnBatchRecord& rec);

  /// True when enough has been journaled since the last snapshot that the
  /// node should hand over a fresh one.
  bool snapshot_due() const;
  void write_snapshot(const Snapshot& snap);

  /// Journals a restart marker so the next recovery can count restarts
  /// since the last snapshot and hand out a status-counter epoch no
  /// earlier incarnation ever published (see LyraNode::restore).
  void restarted();

  const DurableJournalStats& stats() const { return stats_; }

 private:
  void append(WalRecordType type, BytesView payload);

  MemDisk* disk_;
  Options options_;
  WalWriter wal_;
  std::uint64_t committed_since_snapshot_ = 0;
  std::uint64_t next_snapshot_index_ = 0;
  DurableJournalStats stats_;
};

// --- WAL record payload codecs (shared with recovery) ---
// kAccepted is one append_entry image; kCommitted appends the u32 tx_count.

Bytes encode_revealed_record(const crypto::Digest& cipher_id,
                             const crypto::Digest& payload_digest,
                             std::uint32_t tx_count);
bool decode_revealed_record(BytesView payload, crypto::Digest& cipher_id,
                            crypto::Digest& payload_digest,
                            std::uint32_t& tx_count);

Bytes encode_own_batch_record(const OwnBatchRecord& rec);
bool decode_own_batch_record(BytesView payload, OwnBatchRecord& out);

}  // namespace lyra::storage
