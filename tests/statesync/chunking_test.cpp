// Unit tests for the state-transfer codec (src/statesync/chunking):
// prefix blob round-trip, strictness against malformed input, chunk
// tiling, and the position/cut binding of the digests.

#include <gtest/gtest.h>

#include <vector>

#include "statesync/chunking.hpp"

namespace lyra::statesync {
namespace {

std::vector<core::AcceptedEntry> sample_entries(std::size_t count) {
  std::vector<core::AcceptedEntry> out;
  for (std::size_t i = 0; i < count; ++i) {
    core::AcceptedEntry e;
    e.cipher_id = crypto::Sha256::hash(to_bytes("cipher-" + std::to_string(i)));
    e.seq = static_cast<SeqNum>(100 * i + 7);
    e.inst.proposer = static_cast<NodeId>(i % 5);
    e.inst.index = i;
    out.push_back(e);
  }
  return out;
}

TEST(SyncChunking, PrefixRoundTrip) {
  const auto entries = sample_entries(9);
  const Bytes blob = encode_sync_prefix(entries);
  EXPECT_EQ(blob.size(), sync_prefix_bytes(entries.size()));

  std::vector<core::AcceptedEntry> decoded;
  ASSERT_TRUE(decode_sync_prefix(blob, decoded));
  ASSERT_EQ(decoded.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(decoded[i].cipher_id, entries[i].cipher_id);
    EXPECT_EQ(decoded[i].seq, entries[i].seq);
    EXPECT_EQ(decoded[i].inst, entries[i].inst);
  }
}

TEST(SyncChunking, EmptyPrefixRoundTrip) {
  const Bytes blob = encode_sync_prefix({});
  EXPECT_EQ(blob.size(), 8u);
  std::vector<core::AcceptedEntry> decoded;
  ASSERT_TRUE(decode_sync_prefix(blob, decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(SyncChunking, DecodeRejectsMalformedBlobs) {
  const Bytes blob = encode_sync_prefix(sample_entries(3));
  std::vector<core::AcceptedEntry> decoded;

  Bytes truncated(blob.begin(), blob.end() - 1);
  EXPECT_FALSE(decode_sync_prefix(truncated, decoded));

  Bytes padded = blob;
  padded.push_back(0);
  EXPECT_FALSE(decode_sync_prefix(padded, decoded));

  Bytes lying_count = blob;
  lying_count[0] ^= 0x01;  // count no longer matches the byte length
  EXPECT_FALSE(decode_sync_prefix(lying_count, decoded));

  EXPECT_FALSE(decode_sync_prefix(Bytes{}, decoded));
}

TEST(SyncChunking, ChunkTilingCoversBlobExactly) {
  const Bytes blob = encode_sync_prefix(sample_entries(10));
  const std::size_t kChunk = 100;
  const std::size_t count = chunk_count(blob.size(), kChunk);
  EXPECT_EQ(count, (blob.size() + kChunk - 1) / kChunk);

  std::size_t total = 0;
  Bytes reassembled;
  for (std::size_t i = 0; i < count; ++i) {
    const BytesView slice = chunk_slice(blob, i, kChunk);
    EXPECT_LE(slice.size(), kChunk);
    if (i + 1 < count) {
      EXPECT_EQ(slice.size(), kChunk);
    }
    total += slice.size();
    reassembled.insert(reassembled.end(), slice.begin(), slice.end());
  }
  EXPECT_EQ(total, blob.size());
  EXPECT_EQ(reassembled, blob);
  EXPECT_EQ(chunk_count(0, kChunk), 0u);
}

TEST(SyncChunking, ChunkDigestBindsCutAndPosition) {
  const Bytes data = to_bytes("some chunk bytes");
  const crypto::Digest base = chunk_digest(5, 2, data);
  EXPECT_NE(chunk_digest(6, 2, data), base);  // different cut
  EXPECT_NE(chunk_digest(5, 3, data), base);  // different slot
  Bytes tampered = data;
  tampered[0] ^= 0xFF;
  EXPECT_NE(chunk_digest(5, 2, tampered), base);
  EXPECT_EQ(chunk_digest(5, 2, data), base);  // deterministic
}

TEST(SyncChunking, ManifestDigestBindsEveryField) {
  const std::vector<crypto::Digest> chunks = {
      crypto::Sha256::hash(to_bytes("a")), crypto::Sha256::hash(to_bytes("b"))};
  const crypto::Digest base = manifest_digest(4, 184, chunks);
  EXPECT_NE(manifest_digest(5, 184, chunks), base);
  EXPECT_NE(manifest_digest(4, 183, chunks), base);
  std::vector<crypto::Digest> reordered = {chunks[1], chunks[0]};
  EXPECT_NE(manifest_digest(4, 184, reordered), base);
  EXPECT_EQ(manifest_digest(4, 184, chunks), base);
}

}  // namespace
}  // namespace lyra::statesync
