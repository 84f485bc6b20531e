#include "storage/recovery.hpp"

#include <algorithm>
#include <unordered_set>

#include "crypto/hash.hpp"
#include "storage/codec.hpp"

namespace lyra::storage {

RecoveredState recover(const MemDisk& disk) {
  RecoveredState state;

  // Newest decodable snapshot wins; anything newer that fails its CRC is
  // counted and skipped (the previous snapshot plus a longer WAL suffix
  // reconstructs the same state).
  std::vector<std::pair<std::uint64_t, std::string>> snaps;
  for (const std::string& name : disk.list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) snaps.emplace_back(index, name);
  }
  std::sort(snaps.rbegin(), snaps.rend());

  Snapshot base;
  for (const auto& [index, name] : snaps) {
    if (decode_snapshot(disk.read(name), base)) {
      state.stats.snapshot_loaded = true;
      break;
    }
    base = Snapshot{};
    ++state.stats.snapshots_discarded;
  }
  state.stats.snapshots_all_corrupt =
      !snaps.empty() && !state.stats.snapshot_loaded;

  state.status_counter = base.status_counter;
  state.next_proposal_index = base.next_proposal_index;
  state.accepted = base.accepted;
  state.ledger = base.ledger;
  state.own_batches = base.own_batches;

  std::unordered_set<crypto::Digest, crypto::DigestHash> accepted_ids;
  std::unordered_set<crypto::Digest, crypto::DigestHash> ledger_ids;
  std::unordered_set<InstanceId> own_insts;
  for (const auto& e : state.accepted) accepted_ids.insert(e.cipher_id);
  for (const auto& rec : state.ledger) ledger_ids.insert(rec.entry.cipher_id);
  for (const auto& rec : state.own_batches) own_insts.insert(rec.inst);

  const std::uint64_t from_segment =
      state.stats.snapshot_loaded ? base.wal_start_segment : 0;
  const WalReplayStats wal = wal_replay(
      disk, from_segment, [&](std::uint8_t type, BytesView payload) {
        switch (static_cast<WalRecordType>(type)) {
          case WalRecordType::kAccepted: {
            ByteReader r(payload);
            const core::AcceptedEntry entry = r.entry();
            if (r.ok() && r.remaining() == 0 &&
                accepted_ids.insert(entry.cipher_id).second) {
              state.accepted.push_back(entry);
            }
            break;
          }
          case WalRecordType::kCommitted: {
            ByteReader r(payload);
            LedgerEntryRecord rec;
            rec.entry = r.entry();
            rec.tx_count = r.u32();
            if (r.ok() && r.remaining() == 0 &&
                ledger_ids.insert(rec.entry.cipher_id).second) {
              state.ledger.push_back(rec);
              if (accepted_ids.insert(rec.entry.cipher_id).second) {
                state.accepted.push_back(rec.entry);
              }
            }
            break;
          }
          case WalRecordType::kRevealed: {
            crypto::Digest id, payload_digest;
            std::uint32_t tx_count = 0;
            if (!decode_revealed_record(payload, id, payload_digest,
                                        tx_count)) {
              break;
            }
            for (LedgerEntryRecord& rec : state.ledger) {
              if (rec.entry.cipher_id == id) {
                rec.revealed = true;
                // The commit wave that preceded this reveal broadcast our
                // decryption share; record the release.
                rec.share_released = true;
                rec.payload_digest = payload_digest;
                // A hole-commit (payload unknown at commit time) journaled
                // tx_count 0; the reveal record carries the real count.
                if (tx_count != 0) rec.tx_count = tx_count;
                break;
              }
            }
            break;
          }
          case WalRecordType::kOwnBatch: {
            OwnBatchRecord rec;
            if (decode_own_batch_record(payload, rec) &&
                own_insts.insert(rec.inst).second) {
              state.own_batches.push_back(std::move(rec));
            }
            break;
          }
          case WalRecordType::kRestart:
            ++state.restarts;
            break;
          case WalRecordType::kProposal: {
            ByteReader r(payload);
            const std::uint64_t index = r.u64();
            if (r.ok()) {
              state.next_proposal_index =
                  std::max(state.next_proposal_index, index + 1);
            }
            break;
          }
          default:
            break;  // unknown record type: forward-compat skip
        }
      });

  state.stats.replayed_records = wal.records;
  state.stats.replayed_bytes = wal.bytes;
  state.stats.wal_segments = wal.segments;
  state.stats.torn_tail_bytes = wal.torn_tail_bytes;
  state.stats.wal_corrupt = wal.corrupt;
  state.found = state.stats.snapshot_loaded || wal.segments > 0;
  return state;
}

}  // namespace lyra::storage
