#include "crypto/hmac.hpp"

#include <array>

namespace lyra::crypto {

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (std::size_t i = 0; i < block.size(); ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(ipad.data(), ipad.size());
  outer_.update(opad.data(), opad.size());
}

Digest HmacKey::finish(Sha256& inner) const {
  const Digest inner_digest = inner.finalize();
  Sha256 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finalize();
}

Digest hmac_sha256(BytesView key, BytesView message) {
  const HmacKey k(key);
  Sha256 inner = k.begin();
  inner.update(message);
  return k.finish(inner);
}

}  // namespace lyra::crypto
