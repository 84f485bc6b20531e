#include "lyra/commit_machine.hpp"

#include <algorithm>
#include <tuple>

#include "support/assert.hpp"

namespace lyra::core {

namespace {
/// The buffer a node stores for the plaintext it just recovered from
/// `init`'s cipher: the one an earlier node published in the INIT's slot
/// when it holds the same bytes, else `payload`, now published there.
/// Host memory only; every check that produced `payload` already ran.
std::shared_ptr<const Bytes> share_or_publish(const InitMsg& init,
                                              Bytes payload) {
  if (auto shared = init.revealed.lock(); shared && *shared == payload) {
    return shared;
  }
  auto own = std::make_shared<const Bytes>(std::move(payload));
  init.revealed = own;
  return own;
}

/// The ledger's order, (seq, cipher_id), over ledger and accepted entries.
constexpr auto ledger_before = [](const auto& a, const auto& b) {
  return std::tie(a.seq, a.cipher_id) < std::tie(b.seq, b.cipher_id);
};
}  // namespace

CommitMachine::CommitMachine(CommitHost& host, NodeId self,
                             const Config& config,
                             const crypto::KeyRegistry& registry,
                             NodeStats& stats)
    : host_(host),
      self_(self),
      config_(config),
      signer_(registry.signer_for(self)),
      vss_(&registry, static_cast<std::uint32_t>(config.n),
           static_cast<std::uint32_t>(config.quorum())),
      stats_(stats),
      commit_(config) {}

const CommittedBatch* CommitMachine::committed_entry(
    const crypto::Digest& cipher_id) const {
  const std::optional<SeqNum> seq = commit_.accepted_seq(cipher_id);
  if (!seq) return nullptr;
  const AcceptedEntry key{cipher_id, *seq, {}};
  const auto it =
      std::lower_bound(ledger_.begin(), ledger_.end(), key, ledger_before);
  return it != ledger_.end() && !ledger_before(key, *it) ? &*it : nullptr;
}

// ---------------------------------------------------------------------------
// Accepted set and the commit step (Alg. 4)
// ---------------------------------------------------------------------------

void CommitMachine::apply_status(NodeId from, const StatusPiggyback& status) {
  if (from >= config_.n) return;
  commit_.on_status(from, status);
  for (const AcceptedEntry& entry : status.accepted_delta) {
    merge_accepted(entry, from);
  }
}

void CommitMachine::merge_accepted(const AcceptedEntry& entry, NodeId from) {
  if (entry.inst.proposer == self_) {
    next_own_index_ = std::max(next_own_index_, entry.inst.index + 1);
  }
  if (!commit_.add_accepted(entry)) return;
  if (journal_ != nullptr) journal_->accepted(entry);
  commit_.resolve_pending(entry.cipher_id);
  PendingReveal& p = pending_[entry.cipher_id];
  if (p.init) return;
  if (auto init = host_.commit_init_of(entry.inst)) {
    p.init = std::move(init);
  } else if (from != self_) {
    auto req = std::make_shared<ReqInitMsg>();
    req->inst = entry.inst;
    host_.send_msg(from, req);
  }
}

bool CommitMachine::try_commit(bool extract) {
  commit_.recompute();
  if (!extract) return false;
  const std::vector<AcceptedEntry> wave = commit_.take_committable();
  if (wave.empty()) return false;

  auto shares_msg = std::make_shared<SharesMsg>();
  for (const AcceptedEntry& entry : wave) {
    PendingReveal& p = *commit_step({entry});
    CommittedBatch& cb = ledger_.back();
    host_.commit_trace("commit",
                       [&] { return "seq=" + std::to_string(entry.seq); });
    host_.commit_extracted(cb, p.init != nullptr);
    if (!p.init) continue;
    if (config_.obfuscate) release_share(cb, p, *shares_msg);
    try_reveal(entry.cipher_id, p);
  }
  if (!shares_msg->shares.empty()) host_.broadcast_msg(shares_msg);
  return true;
}

CommitMachine::PendingReveal* CommitMachine::commit_step(
    const storage::LedgerEntryRecord& rec) {
  const AcceptedEntry& entry = rec.entry;
  PendingReveal* p = rec.revealed ? nullptr : &pending_[entry.cipher_id];
  CommittedBatch& cb = ledger_.emplace_back();
  cb.seq = entry.seq;
  cb.inst = entry.inst;
  cb.cipher_id = entry.cipher_id;
  cb.tx_count = p != nullptr && p->init ? p->init->tx_count : rec.tx_count;
  cb.committed_at = host_.commit_now();
  cb.share_released = rec.share_released;
  cb.payload_digest = rec.payload_digest;
  ++stats_.committed_batches;
  if (rec.revealed) {
    cb.revealed_at = host_.commit_now();
    ++stats_.revealed_batches;
    stats_.committed_txs += cb.tx_count;
  }

  chain_hash_ = crypto::Hasher()
                    .add(chain_hash_)
                    .add_i64(entry.seq)
                    .add(entry.cipher_id)
                    .digest();
  commit_.mark_extracted(entry);
  if (journal_ != nullptr) journal_->committed(entry, cb.tx_count);
  // committed_entry() binary-searches the ledger by (seq, cipher_id).
  LYRA_ASSERT((ledger_.size() == 1 ||
               ledger_before(ledger_[ledger_.size() - 2], cb)) &&
                  commit_.committed() >= cb.seq,
              "commit step out of (seq, cipher_id) order");
  return p;
}

void CommitMachine::fill_status(StatusPiggyback& status, bool broadcast) {
  status.min_pending = commit_.min_pending();
  if (broadcast) status.accepted_delta = commit_.drain_accepted_delta();
}

// ---------------------------------------------------------------------------
// Commit-reveal
// ---------------------------------------------------------------------------

void CommitMachine::release_share(CommittedBatch& cb, PendingReveal& p,
                                  SharesMsg& out) {
  charge(config_.costs.vss_partial_decrypt);
  const crypto::VssShare share = vss_.partial_decrypt(p.init->cipher, signer_);
  p.shares.push_back(share);
  cb.share_released = true;
  out.shares.emplace_back(cb.cipher_id, share);
}

void CommitMachine::on_init(const std::shared_ptr<const InitMsg>& init) {
  // The entry may have been accepted through a peer's delta, or its shares
  // may have come, before this INIT.
  const auto it = pending_.find(init->cipher.id);
  if (it == pending_.end() || it->second.init) return;
  it->second.init = init;
  if (CommittedBatch* cb = committed_entry(it->first)) {
    on_cipher_for_committed(*cb, it->second);
  }
}

void CommitMachine::on_cipher_for_committed(CommittedBatch& cb,
                                            PendingReveal& p) {
  cb.tx_count = p.init->tx_count;
  if (config_.obfuscate && !cb.share_released) {
    auto msg = std::make_shared<SharesMsg>();
    release_share(cb, p, *msg);
    host_.broadcast_msg(msg);
  }
  try_reveal(cb.cipher_id, p);
}

void CommitMachine::on_shares(NodeId from, const SharesMsg& m) {
  // A replica speaks only for its own share; otherwise one Byzantine
  // replica could fill every owner's slot with forgeries before the real
  // shares arrive and starve decrypt of 2f+1 valid ones. One share per
  // owner also bounds a cipher's reveal state at n.
  if (from >= config_.n) return;
  for (const auto& [cipher_id, share] : m.shares) {
    if (share.owner != from) continue;
    auto it = pending_.find(cipher_id);
    if (it == pending_.end()) {
      // Committed without reveal state: revealed, and nothing is kept.
      if (committed_entry(cipher_id) != nullptr) continue;
      it = pending_.try_emplace(cipher_id).first;
    }
    PendingReveal& p = it->second;
    const bool duplicate = std::any_of(
        p.shares.begin(), p.shares.end(),
        [&](const crypto::VssShare& s) { return s.owner == share.owner; });
    if (!duplicate) {
      p.shares.push_back(share);
      try_reveal(cipher_id, p);
    }
  }
}

void CommitMachine::try_reveal(const crypto::Digest& cipher_id,
                               PendingReveal& p) {
  if (!p.init) return;
  if (config_.obfuscate && p.shares.size() < config_.quorum()) return;
  CommittedBatch* cb = committed_entry(cipher_id);
  if (cb == nullptr) return;
  if (!config_.obfuscate) {
    // Ablation mode: the "cipher" carries the payload in the clear.
    finalize_reveal(*cb, share_or_publish(*p.init, p.init->cipher.ciphertext));
    return;
  }
  host_.commit_charge(
      config_.crypto_cost(config_.costs.vss_combine) +
      config_.crypto_cost(
          config_.costs.hash_cost(p.init->cipher.ciphertext.size())));
  auto payload = vss_.decrypt(p.init->cipher, p.shares);
  if (!payload) return;  // not enough *valid* shares yet
  finalize_reveal(*cb, share_or_publish(*p.init, std::move(*payload)));
}

void CommitMachine::finalize_reveal(CommittedBatch& cb,
                                    std::shared_ptr<const Bytes> payload) {
  const auto it = pending_.find(cb.cipher_id);
  LYRA_ASSERT(it != pending_.end() && !cb.revealed(),
              "reveal of an entry with no reveal state");
  // Normal path: the digest comes from the cipher. Catch-up installs have
  // no cipher; sync_install_payload stamped cb.payload_digest already.
  if (it->second.init) {
    cb.payload_digest = it->second.init->cipher.payload_digest;
  }
  cb.revealed_at = host_.commit_now();
  if (journal_ != nullptr) {
    journal_->revealed(cb.cipher_id, cb.payload_digest, cb.tx_count);
  }
  cb.payload = std::move(payload);
  ++stats_.revealed_batches;
  stats_.committed_txs += cb.tx_count;

  const bool own = cb.inst.proposer == self_;
  if (own && cb.committed_at > 0) {
    stats_.phase_reveal_ms.add(to_ms(cb.revealed_at - cb.committed_at));
  }
  host_.commit_trace("reveal", [&] {
    return "seq=" + std::to_string(cb.seq) +
           " txs=" + std::to_string(cb.tx_count);
  });
  if (reveal_hook_) reveal_hook_(cb);
  if (!config_.retain_payloads) cb.payload.reset();
  if (own) host_.commit_own_revealed(cb);
  // The entry is the batch's only record from here on; the instance map
  // still holds the INIT for late ReqInit pulls until GC.
  pending_.erase(cb.cipher_id);
}

// ---------------------------------------------------------------------------
// Durability and state sync
// ---------------------------------------------------------------------------

void CommitMachine::fill_snapshot(storage::Snapshot& snap) const {
  snap.next_proposal_index = next_own_index_;
  snap.committed = commit_.committed();
  // Ledger appends happen in extraction order, so the last ledger entry is
  // exactly the CommitState cursor.
  if (!ledger_.empty()) {
    snap.cursor_seq = ledger_.back().seq;
    snap.cursor_id = ledger_.back().cipher_id;
  }
  snap.chain_hash = chain_hash_;
  snap.accepted = commit_.accepted_after(kNoSeq, crypto::kZeroDigest);
  snap.ledger.reserve(ledger_.size());
  for (const CommittedBatch& cb : ledger_) {
    snap.ledger.push_back({{cb.cipher_id, cb.seq, cb.inst}, cb.tx_count,
                           cb.revealed(), cb.share_released,
                           cb.payload_digest});
  }
}

void CommitMachine::restore(const storage::RecoveredState& recovered) {
  next_own_index_ = recovered.next_proposal_index;
  for (const AcceptedEntry& e : recovered.accepted) commit_.install(e);
  ledger_.reserve(recovered.ledger.size());
  for (const storage::LedgerEntryRecord& rec : recovered.ledger) {
    // Rebuilding the chain hash is real recovery work. committed_at is the
    // recovery instant. A share released pre-crash is public; none is
    // released again. A ReqInit pull refills a cipher still due a reveal.
    charge(config_.costs.hash_cost(72));
    commit_step(rec);
  }
}

bool CommitMachine::sync_install_prefix(
    const std::vector<AcceptedEntry>& entries) {
  // f+1 distinct peers vouched for this prefix, so at least one correct
  // node committed it. Our own ledger was extracted under the same quorum
  // rules; a divergence here would mean the protocol's safety broke.
  // Refuse structurally (the manager renegotiates the cut) instead of
  // aborting — the fuzzer drives this path with injected faults.
  const auto refuse = [this](const char* why) {
    host_.commit_trace("statesync", [why] { return std::string(why); });
    return false;
  };
  if (entries.size() < ledger_.size()) {
    return refuse("refused synced cut below the local ledger");
  }
  for (std::size_t i = 0; i < ledger_.size(); ++i) {
    if (ledger_[i].cipher_id != entries[i].cipher_id) {
      return refuse("refused synced cut: local ledger is not a prefix of it");
    }
  }
  for (std::size_t i = std::max<std::size_t>(ledger_.size(), 1);
       i < entries.size(); ++i) {
    if (!ledger_before(entries[i - 1], entries[i])) {
      return refuse("refused synced cut out of (seq, cipher_id) order");
    }
  }
  for (std::size_t i = ledger_.size(); i < entries.size(); ++i) {
    const AcceptedEntry& e = entries[i];
    // An amnesiac proposer must never reuse an instance id that peers
    // already decided; the synced prefix names every committed one.
    if (e.inst.proposer == self_) {
      next_own_index_ = std::max(next_own_index_, e.inst.index + 1);
    }
    commit_.install(e);
    charge(config_.costs.hash_cost(72));
    PendingReveal& p = *commit_step({e});
    // The cipher may already be here (InitRelay raced the sync): share and
    // reveal right away instead of waiting for catch-up.
    if (p.init) on_cipher_for_committed(ledger_.back(), p);
  }
  host_.commit_trace("statesync", [&] {
    return "installed prefix len=" + std::to_string(ledger_.size());
  });
  return true;
}

std::vector<AcceptedEntry> CommitMachine::sync_committed_entries(
    std::uint64_t first, std::size_t count) const {
  std::vector<AcceptedEntry> out;
  if (first >= ledger_.size()) return out;
  count = std::min<std::uint64_t>(count, ledger_.size() - first);
  out.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    out.push_back({ledger_[i].cipher_id, ledger_[i].seq, ledger_[i].inst});
  }
  return out;
}

bool CommitMachine::sync_lookup_reveal(const crypto::Digest& cipher_id,
                                       crypto::Digest& payload_digest,
                                       std::uint32_t& tx_count,
                                       Bytes& payload) const {
  const CommittedBatch* cb = committed_entry(cipher_id);
  if (cb == nullptr || !cb->revealed()) return false;
  payload_digest = cb->payload_digest;
  tx_count = cb->tx_count;
  payload.clear();
  if (cb->payload) payload = *cb->payload;
  return true;
}

std::vector<crypto::Digest> CommitMachine::sync_unrevealed(
    std::size_t limit) const {
  std::vector<crypto::Digest> out;
  for (const CommittedBatch& cb : ledger_) {
    if (out.size() >= limit) break;
    // A restored entry can be revealed on record yet hold no bytes: the
    // journal keeps the reveal digest, not the payload. When payloads are
    // retained, that is still a hole catch-up must close.
    const bool bytes_missing = config_.retain_payloads && !cb.payload;
    if (!cb.revealed() || bytes_missing) out.push_back(cb.cipher_id);
  }
  return out;
}

bool CommitMachine::sync_install_payload(const crypto::Digest& cipher_id,
                                         const Bytes& payload,
                                         const crypto::Digest& payload_digest,
                                         std::uint32_t tx_count) {
  CommittedBatch* cb = committed_entry(cipher_id);
  if (cb == nullptr) return false;
  if (cb->revealed()) {
    // Reveal digest survived in the journal but the bytes did not. Our
    // own durable digest outranks the peer vote quorum: reject anything
    // that does not match it, and only refill — the reveal was already
    // finalized (and clients notified) by the pre-crash incarnation.
    if (!config_.retain_payloads || cb->payload) return false;
    if (payload_digest != cb->payload_digest) return false;
    cb->payload = std::make_shared<const Bytes>(payload);
    return true;
  }
  cb->payload_digest = payload_digest;
  if (tx_count != 0) cb->tx_count = tx_count;
  finalize_reveal(*cb, std::make_shared<const Bytes>(payload));
  return true;
}

}  // namespace lyra::core
