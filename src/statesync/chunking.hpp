#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash.hpp"
#include "lyra/messages.hpp"
#include "storage/codec.hpp"
#include "support/bytes.hpp"

namespace lyra::statesync {

/// Exact blob size for a prefix of `count` entries; a manifest reporting
/// any other total for its cut is malformed and dropped before grouping.
inline constexpr std::uint64_t sync_prefix_bytes(std::uint64_t count) {
  return 8 + count * storage::kEntryBytes;
}

/// Deterministic wire form of a committed prefix, shared by every correct
/// node: an entry count, then each entry's storage::append_entry image.
/// Only the ordering facts (seq, cipher_id, instance) go in. Reveal flags
/// and transaction counts are deliberately absent — they differ between
/// correct peers at the same cut (a batch can commit before its cipher
/// arrives), so including them would split the f+1 manifest quorum. The
/// layout is flat, so the chunk server encodes any byte range from the
/// entries it covers without materializing the whole blob.
Bytes encode_sync_prefix(const std::vector<core::AcceptedEntry>& entries);

/// Strict inverse; false on any truncation, trailing garbage, or length
/// lie. The entry count is bounds-checked against the blob size before any
/// allocation, so a hostile header cannot balloon memory.
bool decode_sync_prefix(BytesView data,
                        std::vector<core::AcceptedEntry>& out);

/// Number of `chunk_bytes`-sized chunks covering `total_bytes` (0 for an
/// empty blob).
std::size_t chunk_count(std::size_t total_bytes, std::size_t chunk_bytes);

/// Byte range of chunk `index` (the last chunk may be short).
BytesView chunk_slice(BytesView blob, std::size_t index,
                      std::size_t chunk_bytes);

/// Digest of one chunk, bound to its cut and position so a Byzantine peer
/// cannot replay chunk k of a different cut (or a different slot) as
/// chunk k of this one.
crypto::Digest chunk_digest(std::uint64_t cut, std::uint32_t index,
                            BytesView data);

/// Digest of the whole manifest: cut, blob size, and every chunk digest in
/// order. This is what f+1 peers must agree on before any chunk is pulled.
crypto::Digest manifest_digest(std::uint64_t cut, std::uint64_t total_bytes,
                               const std::vector<crypto::Digest>& chunks);

}  // namespace lyra::statesync
