#include "crypto/keys.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace lyra::crypto {

namespace {
constexpr std::string_view kSignDomain = "sig";
constexpr std::string_view kShareDomain = "thr";
constexpr std::string_view kSealDomain = "seal";
}  // namespace

KeyRegistry::KeyRegistry(std::size_t num_processes, std::size_t threshold,
                         Rng& rng)
    : threshold_(threshold) {
  LYRA_ASSERT(num_processes > 0, "registry needs at least one process");
  LYRA_ASSERT(threshold > 0 && threshold <= num_processes,
              "threshold must be in [1, n]");
  keys_.reserve(num_processes);
  for (std::size_t i = 0; i < num_processes; ++i) {
    Bytes secret(32);
    for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next_u64());
    keys_.emplace_back(secret);
  }
}

Signer KeyRegistry::signer_for(NodeId id) const {
  LYRA_ASSERT(id < keys_.size(), "unknown process id");
  return Signer(this, id);
}

Digest KeyRegistry::mac_for(NodeId id, BytesView message,
                            std::string_view domain) const {
  LYRA_ASSERT(id < keys_.size(), "unknown process id");
  // MAC over domain || 0 || message, streamed without a joined buffer.
  const HmacKey& key = keys_[id];
  Sha256 inner = key.begin();
  inner.update(domain.data(), domain.size());
  const std::uint8_t separator = 0;
  inner.update(&separator, 1);
  inner.update(message);
  return key.finish(inner);
}

bool KeyRegistry::verify(BytesView message, const Signature& sig,
                         NodeId claimed) const {
  if (sig.signer != claimed || claimed >= keys_.size()) return false;
  return mac_for(claimed, message, kSignDomain) == sig.mac;
}

bool KeyRegistry::share_verify(BytesView message, const SigShare& share,
                               NodeId claimed) const {
  if (share.signer != claimed || claimed >= keys_.size()) return false;
  return mac_for(claimed, message, kShareDomain) == share.mac;
}

std::optional<ThresholdSig> KeyRegistry::share_combine(
    BytesView message, const std::vector<SigShare>& shares) const {
  ThresholdSig out;
  out.message_digest = Sha256::hash(message);
  out.shares.reserve(threshold_);
  for (const SigShare& s : shares) {
    // A proof needs exactly `threshold` shares: the first ones that are
    // valid and distinct.
    if (out.shares.size() == threshold_) break;
    if (!share_verify(message, s, s.signer)) continue;
    const bool duplicate =
        std::any_of(out.shares.begin(), out.shares.end(),
                    [&](const SigShare& t) { return t.signer == s.signer; });
    if (!duplicate) out.shares.push_back(s);
  }
  if (out.shares.size() < threshold_) return std::nullopt;
  return out;
}

bool KeyRegistry::threshold_verify(const ThresholdSig& sig,
                                   BytesView message) const {
  if (sig.message_digest != Sha256::hash(message)) return false;
  if (sig.shares.size() < threshold_) return false;
  for (auto it = sig.shares.begin(); it != sig.shares.end(); ++it) {
    if (!share_verify(message, *it, it->signer)) return false;
    const bool duplicate =
        std::any_of(sig.shares.begin(), it,
                    [&](const SigShare& t) { return t.signer == it->signer; });
    if (duplicate) return false;
  }
  return true;
}

Signature Signer::sign(BytesView message) const {
  return Signature{id_, registry_->mac_for(id_, message, kSignDomain)};
}

SigShare Signer::share_sign(BytesView message) const {
  return SigShare{id_, registry_->mac_for(id_, message, kShareDomain)};
}

Digest Signer::derive_secret(BytesView context) const {
  return registry_->mac_for(id_, context, kSealDomain);
}

}  // namespace lyra::crypto
