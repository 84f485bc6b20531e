#include "statesync/chunking.hpp"

#include <algorithm>

namespace lyra::statesync {

Bytes encode_sync_prefix(const std::vector<core::AcceptedEntry>& entries) {
  Bytes out;
  out.reserve(sync_prefix_bytes(entries.size()));
  append_u64(out, entries.size());
  for (const core::AcceptedEntry& e : entries) storage::append_entry(out, e);
  return out;
}

bool decode_sync_prefix(BytesView data,
                        std::vector<core::AcceptedEntry>& out) {
  storage::ByteReader r(data);
  const std::uint64_t count = r.u64();
  // Divide, don't multiply: a tampered count near 2^64 would wrap the
  // product past the length check and then abort inside reserve().
  if (!r.ok() || r.remaining() % storage::kEntryBytes != 0 ||
      count != r.remaining() / storage::kEntryBytes) {
    return false;
  }
  std::vector<core::AcceptedEntry> entries;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    entries.push_back(r.entry());
  }
  if (!r.ok() || r.remaining() != 0) return false;
  out = std::move(entries);
  return true;
}

std::size_t chunk_count(std::size_t total_bytes, std::size_t chunk_bytes) {
  if (total_bytes == 0) return 0;
  return (total_bytes + chunk_bytes - 1) / chunk_bytes;
}

BytesView chunk_slice(BytesView blob, std::size_t index,
                      std::size_t chunk_bytes) {
  const std::size_t begin = index * chunk_bytes;
  if (begin >= blob.size()) return {};
  return blob.subspan(begin, std::min(chunk_bytes, blob.size() - begin));
}

crypto::Digest chunk_digest(std::uint64_t cut, std::uint32_t index,
                            BytesView data) {
  return crypto::Hasher()
      .add_str("lyra-sync-chunk")
      .add_u64(cut)
      .add_u32(index)
      .add(data)
      .digest();
}

crypto::Digest manifest_digest(std::uint64_t cut, std::uint64_t total_bytes,
                               const std::vector<crypto::Digest>& chunks) {
  crypto::Hasher h;
  h.add_str("lyra-sync-manifest").add_u64(cut).add_u64(total_bytes);
  for (const crypto::Digest& d : chunks) h.add(d);
  return h.digest();
}

}  // namespace lyra::statesync
