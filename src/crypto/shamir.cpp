#include "crypto/shamir.hpp"

#include <algorithm>

#include "crypto/gf256.hpp"
#include "support/assert.hpp"

namespace lyra::crypto {

std::vector<ShamirShare> Shamir::split(BytesView secret, std::uint32_t n,
                                       std::uint32_t k, Rng& rng) {
  LYRA_ASSERT(k > 0 && k <= n && n <= 255, "need 0 < k <= n <= 255");

  std::vector<ShamirShare> shares(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shares[i].x = static_cast<std::uint8_t>(i + 1);
    shares[i].y.resize(secret.size());
  }

  // Draw every random coefficient up front, byte-major — the exact RNG
  // order the original per-byte loop used, so seeded runs reproduce
  // identical shares.
  const std::size_t len = secret.size();
  std::vector<std::uint8_t> coeffs(len * k);
  for (std::size_t byte = 0; byte < len; ++byte) {
    coeffs[byte * k] = secret[byte];
    for (std::uint32_t d = 1; d < k; ++d) {
      coeffs[byte * k + d] = static_cast<std::uint8_t>(rng.next_u64());
    }
  }

  // Evaluate share-major: each share multiplies only by its own x, so one
  // 256-byte product row serves the whole polynomial (Horner at x = i+1).
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t* mul_x = Gf256::row(shares[i].x);
    std::uint8_t* y = shares[i].y.data();
    for (std::size_t byte = 0; byte < len; ++byte) {
      const std::uint8_t* c = &coeffs[byte * k];
      std::uint8_t acc = 0;
      for (std::uint32_t d = k; d-- > 0;) {
        acc = static_cast<std::uint8_t>(mul_x[acc] ^ c[d]);
      }
      y[byte] = acc;
    }
  }
  return shares;
}

std::optional<Bytes> Shamir::combine(const std::vector<ShamirShare>& shares,
                                     std::uint32_t k) {
  std::vector<const ShamirShare*> ptrs;
  ptrs.reserve(shares.size());
  for (const ShamirShare& s : shares) ptrs.push_back(&s);
  return combine(ptrs, k);
}

std::optional<Bytes> Shamir::combine(
    std::span<const ShamirShare* const> shares, std::uint32_t k) {
  if (shares.size() < k || k == 0) return std::nullopt;

  // Use the first k shares; validate distinct x and equal lengths.
  std::vector<const ShamirShare*> used;
  used.reserve(k);
  for (const ShamirShare* s : shares) {
    if (s->x == 0) return std::nullopt;
    const bool dup = std::any_of(used.begin(), used.end(), [&](auto* u) {
      return u->x == s->x;
    });
    if (dup) continue;
    if (!used.empty() && s->y.size() != used.front()->y.size()) {
      return std::nullopt;
    }
    used.push_back(s);
    if (used.size() == k) break;
  }
  if (used.size() < k) return std::nullopt;

  // Lagrange basis at x = 0: l_i(0) = prod_{j != i} x_j / (x_j - x_i).
  std::vector<std::uint8_t> lagrange(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    std::uint8_t num = 1;
    std::uint8_t den = 1;
    for (std::uint32_t j = 0; j < k; ++j) {
      if (i == j) continue;
      num = Gf256::mul(num, used[j]->x);
      den = Gf256::mul(den, Gf256::sub(used[j]->x, used[i]->x));
    }
    lagrange[i] = Gf256::div(num, den);
  }

  const std::size_t len = used.front()->y.size();
  Bytes secret(len, 0);
  for (std::uint32_t i = 0; i < k; ++i) {
    Gf256::mul_xor(secret.data(), used[i]->y.data(), lagrange[i], len);
  }
  return secret;
}

}  // namespace lyra::crypto
