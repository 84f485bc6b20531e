#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "support/bytes.hpp"
#include "support/random.hpp"

namespace lyra::crypto {

/// One Shamir share: the evaluation of the per-byte polynomials at x.
struct ShamirShare {
  std::uint8_t x = 0;  // non-zero evaluation point
  Bytes y;             // one byte per secret byte

  friend bool operator==(const ShamirShare&, const ShamirShare&) = default;
};

/// (k, n) Shamir secret sharing over GF(2^8), applied byte-wise: each secret
/// byte is the constant term of an independent random polynomial of degree
/// k-1. Any k shares reconstruct via Lagrange interpolation at x = 0; fewer
/// than k shares are information-theoretically independent of the secret.
class Shamir {
 public:
  /// Splits `secret` into n shares with reconstruction threshold k.
  /// Requires 0 < k <= n <= 255.
  static std::vector<ShamirShare> split(BytesView secret, std::uint32_t n,
                                        std::uint32_t k, Rng& rng);

  /// Reconstructs the secret from at least k shares with distinct x and
  /// equal length. Returns nullopt on malformed input (duplicate x,
  /// mismatched lengths, or fewer than k shares).
  static std::optional<Bytes> combine(const std::vector<ShamirShare>& shares,
                                      std::uint32_t k);

  /// As above, over pointers to the shares, so a caller that filters
  /// shares need not copy them.
  static std::optional<Bytes> combine(
      std::span<const ShamirShare* const> shares, std::uint32_t k);
};

}  // namespace lyra::crypto
