#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/keys.hpp"
#include "crypto/shamir.hpp"
#include "support/bytes.hpp"
#include "support/random.hpp"

namespace lyra::crypto {

/// A decryption share (paper: `vss-partial-decrypt`): process `owner`'s
/// Shamir share of the symmetric key protecting one ciphertext.
struct VssShare {
  NodeId owner = kNoNode;
  ShamirShare key_share;

  friend bool operator==(const VssShare&, const VssShare&) = default;
};

/// A (2f+1, n) verifiably-secret-shared ciphertext (paper: `vss-encrypt`).
///
/// Construction: the payload is encrypted under a fresh 32-byte symmetric
/// key with a SHA-256-CTR stream cipher; the key is split into n Shamir
/// shares over GF(2^8). Share i is *sealed* for process i by XORing it with
/// a keystream derived from process i's long-term secret and this cipher's
/// identity (the stand-in for encrypting the share under i's public key, so
/// the whole object can travel in a single broadcast). Every share is
/// committed to with a hash so that a wrong or corrupted share is detected
/// during reconstruction (the "verifiable" in VSS).
struct VssCipher {
  Bytes ciphertext;
  Digest payload_digest{};                // binds the plaintext
  std::vector<Bytes> sealed_shares;       // sealed_shares[i] for process i
  std::vector<Digest> share_commitments;  // H(id || i || share_i)
  /// Identity of this cipher, as `compute_id()` returns it. The dealer sets
  /// it; a receiver checks it once against the content (Lyra: on INIT) and
  /// every later step reads the field instead of rehashing the ciphertext.
  /// The modelled wire size does not count it: a receiver recomputes it.
  Digest id{};

  /// Digest over ciphertext and payload digest.
  Digest compute_id() const;
};

/// The digest that binds a batch's plaintext: "vss-payload" for a VSS
/// cipher, "clear" when obfuscation is off and the payload rides in clear.
Digest payload_digest(bool obfuscated, BytesView payload);

class Vss {
 public:
  /// n processes; `threshold` shares reconstruct (the paper uses 2f+1).
  Vss(const KeyRegistry* registry, std::uint32_t n, std::uint32_t threshold);

  std::uint32_t threshold() const { return threshold_; }

  /// paper: vss-encrypt(m).
  VssCipher encrypt(BytesView payload, Rng& rng) const;

  /// paper: vss-partial-decrypt(c_m). Unseals the caller's share. Only the
  /// holder of `signer`'s key can produce a share that verifies against the
  /// commitment.
  VssShare partial_decrypt(const VssCipher& cipher, const Signer& signer) const;

  /// Checks a received share against the cipher's commitment for its owner.
  /// Trusts `cipher.id`: a cipher whose id does not match its content fails
  /// every honest share.
  bool verify_share(const VssCipher& cipher, const VssShare& share) const;

  /// paper: vss-decrypt(c_m, {rho_m}). Combines >= threshold verified
  /// shares; returns nullopt if not enough valid shares or if the decrypted
  /// payload does not match the bound digest.
  std::optional<Bytes> decrypt(const VssCipher& cipher,
                               const std::vector<VssShare>& shares) const;

 private:
  Digest seal_key(const Signer& signer, const Digest& cipher_id) const;
  Digest share_commitment(const Digest& cipher_id, NodeId owner,
                          const ShamirShare& share) const;

  const KeyRegistry* registry_;
  std::uint32_t n_;
  std::uint32_t threshold_;
};

}  // namespace lyra::crypto
