#include "storage/snapshot.hpp"

#include <cstdio>

#include "storage/codec.hpp"
#include "storage/crc32.hpp"

namespace lyra::storage {

namespace {
constexpr std::uint32_t kMagic = 0x4C59'5253u;  // "LYRS"
// v2: ledger entries carry the revealed payload digest; own-batch records
// (pending client notifications) follow the ledger section.
constexpr std::uint32_t kVersion = 2;
}  // namespace

Bytes encode_snapshot(const Snapshot& snap) {
  Bytes out;
  out.reserve(128 + snap.accepted.size() * kEntryBytes +
              snap.ledger.size() * (kEntryBytes + 37));
  append_u32(out, kMagic);
  append_u32(out, kVersion);
  append_u32(out, snap.node);
  append_u64(out, snap.status_counter);
  append_u64(out, snap.next_proposal_index);
  append_i64(out, snap.committed);
  append_i64(out, snap.cursor_seq);
  append_digest(out, snap.cursor_id);
  append_digest(out, snap.chain_hash);
  append_u64(out, snap.wal_start_segment);
  append_u64(out, snap.accepted.size());
  for (const core::AcceptedEntry& e : snap.accepted) append_entry(out, e);
  append_u64(out, snap.ledger.size());
  for (const LedgerEntryRecord& rec : snap.ledger) {
    append_entry(out, rec.entry);
    append_u32(out, rec.tx_count);
    out.push_back(static_cast<std::uint8_t>((rec.revealed ? 1 : 0) |
                                            (rec.share_released ? 2 : 0)));
    append_digest(out, rec.payload_digest);
  }
  append_u64(out, snap.own_batches.size());
  for (const OwnBatchRecord& rec : snap.own_batches) {
    append_instance(out, rec.inst);
    append_u64(out, rec.chunks.size());
    for (const OwnBatchChunk& chunk : rec.chunks) {
      append_u32(out, chunk.client);
      append_u32(out, chunk.count);
      append_i64(out, chunk.submitted_at);
    }
  }
  append_u32(out, crc32(out));
  return out;
}

bool decode_snapshot(BytesView data, Snapshot& out) {
  if (data.size() < 8) return false;
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(data[data.size() - 4]) |
      (static_cast<std::uint32_t>(data[data.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(data[data.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(data[data.size() - 1]) << 24);
  if (stored_crc != crc32(data.subspan(0, data.size() - 4))) return false;

  ByteReader r(data.subspan(0, data.size() - 4));
  if (r.u32() != kMagic || r.u32() != kVersion) return false;
  Snapshot snap;
  snap.node = r.u32();
  snap.status_counter = r.u64();
  snap.next_proposal_index = r.u64();
  snap.committed = r.i64();
  snap.cursor_seq = r.i64();
  snap.cursor_id = r.digest();
  snap.chain_hash = r.digest();
  snap.wal_start_segment = r.u64();

  const std::uint64_t accepted_count = r.u64();
  if (accepted_count > r.remaining()) return false;  // length sanity
  snap.accepted.reserve(accepted_count);
  for (std::uint64_t i = 0; i < accepted_count && r.ok(); ++i) {
    snap.accepted.push_back(r.entry());
  }
  const std::uint64_t ledger_count = r.u64();
  if (ledger_count > r.remaining()) return false;
  snap.ledger.reserve(ledger_count);
  for (std::uint64_t i = 0; i < ledger_count && r.ok(); ++i) {
    LedgerEntryRecord rec;
    rec.entry = r.entry();
    rec.tx_count = r.u32();
    const std::uint8_t flags = r.u8();
    rec.revealed = (flags & 1) != 0;
    rec.share_released = (flags & 2) != 0;
    rec.payload_digest = r.digest();
    snap.ledger.push_back(rec);
  }
  const std::uint64_t own_count = r.u64();
  if (own_count > r.remaining()) return false;
  snap.own_batches.reserve(own_count);
  for (std::uint64_t i = 0; i < own_count && r.ok(); ++i) {
    OwnBatchRecord rec;
    rec.inst = r.instance();
    const std::uint64_t chunk_count = r.u64();
    if (chunk_count > r.remaining()) return false;
    rec.chunks.reserve(chunk_count);
    for (std::uint64_t c = 0; c < chunk_count && r.ok(); ++c) {
      OwnBatchChunk chunk;
      chunk.client = r.u32();
      chunk.count = r.u32();
      chunk.submitted_at = r.i64();
      rec.chunks.push_back(chunk);
    }
    snap.own_batches.push_back(std::move(rec));
  }
  if (!r.ok() || r.remaining() != 0) return false;
  out = std::move(snap);
  return true;
}

std::string snapshot_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%010llu.img",
                static_cast<unsigned long long>(index));
  return buf;
}

bool parse_snapshot_name(const std::string& name, std::uint64_t& index) {
  if (name.size() != 19 || name.rfind("snap-", 0) != 0 ||
      name.compare(15, 4, ".img") != 0) {
    return false;
  }
  index = 0;
  for (std::size_t i = 5; i < 15; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

}  // namespace lyra::storage
