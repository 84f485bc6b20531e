#pragma once

#include "crypto/sha256.hpp"
#include "support/bytes.hpp"

namespace lyra::crypto {

/// An HMAC-SHA256 key with its pads already absorbed: the SHA-256 states
/// after key^ipad and key^opad. A MAC then costs the message's own
/// compressions plus one for the outer hash, instead of rebuilding both
/// pads and compressing them on every call.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  /// The inner hash with the key absorbed. Stream the message into the
  /// returned copy, then pass it to finish().
  Sha256 begin() const { return inner_; }

  /// Finalizes an inner hash obtained from begin(); returns the MAC.
  Digest finish(Sha256& inner) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// HMAC-SHA256 (RFC 2104), verified against RFC 4231 test vectors.
Digest hmac_sha256(BytesView key, BytesView message);

}  // namespace lyra::crypto
