#pragma once

#include <cstdint>

#include "crypto/sha256.hpp"
#include "lyra/messages.hpp"
#include "support/bytes.hpp"
#include "support/types.hpp"

namespace lyra::storage {

/// Little-endian append helpers shared by the WAL record, snapshot and
/// state-sync blob encoders (the integer primitives live in
/// support/bytes.hpp).
inline void append_digest(Bytes& out, const crypto::Digest& d) {
  out.insert(out.end(), d.begin(), d.end());
}

inline void append_instance(Bytes& out, const InstanceId& inst) {
  append_u32(out, inst.proposer);
  append_u64(out, inst.index);
}

/// Wire form of one committed-prefix entry — cipher id (32), seq (8),
/// instance (proposer 4 + index 8) — written by WAL records, snapshots and
/// the state-sync blob alike.
inline constexpr std::size_t kEntryBytes = 52;

inline void append_entry(Bytes& out, const core::AcceptedEntry& entry) {
  append_digest(out, entry.cipher_id);
  append_i64(out, entry.seq);
  append_instance(out, entry.inst);
}

/// Bounds-checked cursor over an encoded buffer. Every accessor sets the
/// sticky `ok()` flag to false on underrun instead of throwing, so decoders
/// can parse optimistically and validate once at the end — a truncated or
/// corrupted input can never read out of bounds.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - at_; }

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[at_++];
  }

  std::uint32_t u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[at_++]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[at_++]) << (8 * i);
    }
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  crypto::Digest digest() {
    crypto::Digest d{};
    if (!ensure(d.size())) return d;
    for (auto& byte : d) byte = data_[at_++];
    return d;
  }

  InstanceId instance() {
    InstanceId inst;
    inst.proposer = u32();
    inst.index = u64();
    return inst;
  }

  /// Inverse of append_entry.
  core::AcceptedEntry entry() {
    core::AcceptedEntry e;
    e.cipher_id = digest();
    e.seq = i64();
    e.inst = instance();
    return e;
  }

 private:
  bool ensure(std::size_t n) {
    if (!ok_ || data_.size() - at_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace lyra::storage
