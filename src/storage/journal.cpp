#include "storage/journal.hpp"

#include <algorithm>

#include "storage/codec.hpp"
#include "support/assert.hpp"

namespace lyra::storage {

namespace {

/// Floors the writer's first segment at every decodable snapshot's replay
/// point: after GC that segment may have no file, and a writer that scanned
/// only files would re-use indices below it — journaling new records where
/// snapshot+suffix recovery never looks.
WalWriter::Options wal_options_on(Disk* disk, WalWriter::Options wal) {
  for (const std::string& name : disk->list()) {
    std::uint64_t index = 0;
    if (!parse_snapshot_name(name, index)) continue;
    Snapshot snap;
    if (decode_snapshot(disk->read(name), snap)) {
      wal.min_segment = std::max(wal.min_segment, snap.wal_start_segment);
    }
  }
  return wal;
}

}  // namespace

Bytes encode_revealed_record(const crypto::Digest& cipher_id,
                             const crypto::Digest& payload_digest,
                             std::uint32_t tx_count) {
  Bytes out;
  out.reserve(68);
  append_digest(out, cipher_id);
  append_digest(out, payload_digest);
  append_u32(out, tx_count);
  return out;
}

bool decode_revealed_record(BytesView payload, crypto::Digest& cipher_id,
                            crypto::Digest& payload_digest,
                            std::uint32_t& tx_count) {
  ByteReader r(payload);
  cipher_id = r.digest();
  payload_digest = r.digest();
  tx_count = r.u32();
  return r.ok() && r.remaining() == 0;
}

Bytes encode_own_batch_record(const OwnBatchRecord& rec) {
  Bytes out;
  out.reserve(20 + rec.chunks.size() * 16);
  append_instance(out, rec.inst);
  append_u64(out, rec.chunks.size());
  for (const OwnBatchChunk& chunk : rec.chunks) {
    append_u32(out, chunk.client);
    append_u32(out, chunk.count);
    append_i64(out, chunk.submitted_at);
  }
  return out;
}

bool decode_own_batch_record(BytesView payload, OwnBatchRecord& out) {
  ByteReader r(payload);
  OwnBatchRecord rec;
  rec.inst = r.instance();
  const std::uint64_t count = r.u64();
  // Divide, don't multiply: a corrupt count near 2^64 would wrap count*16
  // past the length check and then abort inside reserve().
  if (!r.ok() || r.remaining() % 16 != 0 || count != r.remaining() / 16) {
    return false;
  }
  rec.chunks.reserve(count);
  for (std::uint64_t c = 0; c < count && r.ok(); ++c) {
    OwnBatchChunk chunk;
    chunk.client = r.u32();
    chunk.count = r.u32();
    chunk.submitted_at = r.i64();
    rec.chunks.push_back(chunk);
  }
  if (!r.ok() || r.remaining() != 0) return false;
  out = std::move(rec);
  return true;
}

DurableJournal::DurableJournal(Disk* disk)
    : DurableJournal(disk, Options{}) {}

DurableJournal::DurableJournal(Disk* disk, Options options)
    : disk_(disk),
      options_(options),
      wal_(disk, wal_options_on(disk, options.wal)) {
  LYRA_ASSERT(options_.snapshot_every_committed > 0,
              "snapshot cadence must be positive");
  // Continue the snapshot numbering past anything already on disk.
  for (const std::string& name : disk_->list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index)) {
      next_snapshot_index_ = std::max(next_snapshot_index_, index + 1);
    }
  }
}

void DurableJournal::append(WalRecordType type, BytesView payload) {
  wal_.append(static_cast<std::uint8_t>(type), payload);
  ++stats_.wal_records;
  stats_.wal_bytes = wal_.bytes_appended();
}

void DurableJournal::accepted(const core::AcceptedEntry& entry) {
  Bytes payload;
  payload.reserve(kEntryBytes);
  append_entry(payload, entry);
  append(WalRecordType::kAccepted, payload);
}

void DurableJournal::committed(const core::AcceptedEntry& entry,
                               std::uint32_t tx_count) {
  Bytes payload;
  payload.reserve(kEntryBytes + 4);
  append_entry(payload, entry);
  append_u32(payload, tx_count);
  append(WalRecordType::kCommitted, payload);
  ++committed_since_snapshot_;
}

void DurableJournal::revealed(const crypto::Digest& cipher_id,
                              const crypto::Digest& payload_digest,
                              std::uint32_t tx_count) {
  append(WalRecordType::kRevealed,
         encode_revealed_record(cipher_id, payload_digest, tx_count));
}

void DurableJournal::proposal(std::uint64_t index) {
  Bytes payload;
  payload.reserve(8);
  append_u64(payload, index);
  append(WalRecordType::kProposal, payload);
}

void DurableJournal::own_batch(const OwnBatchRecord& rec) {
  append(WalRecordType::kOwnBatch, encode_own_batch_record(rec));
}

void DurableJournal::restarted() { append(WalRecordType::kRestart, {}); }

bool DurableJournal::snapshot_due() const {
  return committed_since_snapshot_ >= options_.snapshot_every_committed;
}

void DurableJournal::write_snapshot(const Snapshot& snap) {
  Snapshot stamped = snap;
  // Everything up to here is inside the snapshot; replay resumes at the
  // next (fresh) segment.
  stamped.wal_start_segment = wal_.seal();
  disk_->write_atomic(snapshot_name(next_snapshot_index_),
                      encode_snapshot(stamped));
  // GC: keep the snapshot just written plus the newest prior one, so
  // recovery's fallback — previous snapshot + a longer WAL suffix — exists
  // on disk if the new snapshot's CRC ever fails. Everything older is
  // superseded; WAL segments are dropped only below what the oldest
  // retained snapshot still needs.
  std::uint64_t prev_index = 0;
  bool have_prev = false;
  for (const std::string& name : disk_->list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index) && index < next_snapshot_index_ &&
        (!have_prev || index > prev_index)) {
      prev_index = index;
      have_prev = true;
    }
  }
  for (const std::string& name : disk_->list()) {
    std::uint64_t index = 0;
    if (parse_snapshot_name(name, index) && index < next_snapshot_index_ &&
        (!have_prev || index != prev_index)) {
      disk_->remove(name);
    }
  }
  std::uint64_t keep_wal_from = stamped.wal_start_segment;
  if (have_prev) {
    Snapshot prev;
    if (decode_snapshot(disk_->read(snapshot_name(prev_index)), prev)) {
      keep_wal_from = std::min(keep_wal_from, prev.wal_start_segment);
    } else {
      // An undecodable fallback protects nothing; drop it rather than pin
      // WAL segments for a snapshot recovery could never load.
      disk_->remove(snapshot_name(prev_index));
    }
  }
  wal_.drop_segments_before(keep_wal_from);
  ++next_snapshot_index_;
  ++stats_.snapshots_written;
  committed_since_snapshot_ = 0;
}

}  // namespace lyra::storage
