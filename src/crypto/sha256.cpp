#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_kernels.hpp"

namespace lyra::crypto {

namespace {

constexpr std::array<std::uint32_t, 8> kInit = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInit;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) { update(data.data(), data.size()); }

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;  // an empty view may carry a null pointer
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      detail::sha256_compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (len >= 64) {
    // All whole blocks go through the kernel in one call so the
    // dispatched implementation amortizes its setup across the run.
    const std::size_t nblocks = len / 64;
    detail::sha256_compress(state_.data(), p, nblocks);
    p += nblocks * 64;
    len -= nblocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finalize() {
  const std::uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, then the 64-bit big-endian message length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  update(pad, pad_len);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(len_be, 8);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

const char* Sha256::backend_name() { return detail::sha256_backend_name(); }

}  // namespace lyra::crypto
