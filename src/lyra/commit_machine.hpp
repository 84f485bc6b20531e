#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/vss.hpp"
#include "lyra/commit_state.hpp"
#include "lyra/config.hpp"
#include "lyra/messages.hpp"
#include "statesync/manager.hpp"
#include "storage/journal.hpp"
#include "storage/recovery.hpp"
#include "support/stats.hpp"

namespace lyra::core {

/// One entry of the node's SMR output, in commit order: the only record a
/// committed batch keeps once revealed.
struct CommittedBatch {
  SeqNum seq = kNoSeq;
  InstanceId inst;
  crypto::Digest cipher_id{};
  std::uint32_t tx_count = 0;
  TimeNs committed_at = 0;
  TimeNs revealed_at = 0;  // 0 until the payload was reconstructed
  /// The revealed plaintext: null until revealed, and again right after the
  /// reveal hook when payloads are not retained. Immutable and shared: the
  /// correct nodes of a simulation hold one buffer per batch (see
  /// share_or_publish in commit_machine.cpp).
  std::shared_ptr<const Bytes> payload;
  bool share_released = false;  // this node broadcast its decryption share
  /// Digest of the revealed payload (zero until known), kept after the
  /// bytes are dropped for state-sync digest votes.
  crypto::Digest payload_digest{};

  bool revealed() const { return revealed_at != 0; }
  /// The plaintext's bytes; empty while there is none.
  BytesView payload_bytes() const {
    return payload ? BytesView(*payload) : BytesView{};
  }
};

struct NodeStats {
  std::uint64_t proposals = 0;
  std::uint64_t accepted_own = 0;
  std::uint64_t rejected_own = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t dropped_batches = 0;  // resubmission cap reached
  std::uint64_t committed_batches = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t revealed_batches = 0;
  std::uint64_t validations_ok = 0;
  std::uint64_t validations_rejected = 0;
  Samples decide_rounds;  // DBFT rounds per decision (3-delay ablation)
  // Per-phase latency of this node's own batches (milliseconds):
  Samples phase_batch_wait_ms;   // client submit -> proposal
  Samples phase_consensus_ms;    // proposal -> BOC decision
  Samples phase_commit_wait_ms;  // decision -> commit watermark
  Samples phase_reveal_ms;       // commit -> payload reconstruction
};

/// What a CommitMachine asks of the process that runs it (LyraNode).
class CommitHost {
 public:
  virtual ~CommitHost() = default;

  virtual void send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) = 0;
  virtual void broadcast_msg(std::shared_ptr<LyraMsg> msg) = 0;
  virtual std::uint64_t arm_timer(TimeNs delay,
                                  std::function<void()> fn) = 0;
  virtual void commit_charge(TimeNs cost) = 0;  // scaled by crypto_cost
  virtual TimeNs commit_now() const = 0;
  /// Records a trace event; `text` runs only while tracing is on.
  virtual void commit_trace(const char* category,
                            const std::function<std::string()>& text) = 0;
  /// The INIT this process adopted for `inst`, if it still holds one.
  virtual std::shared_ptr<const InitMsg> commit_init_of(
      const InstanceId& inst) const = 0;
  /// Extraction appended `cb`; without its cipher, it reveals later.
  virtual void commit_extracted(const CommittedBatch& cb,
                                bool have_cipher) = 0;
  /// An own batch revealed: settle it and commit-notify its clients.
  virtual void commit_own_revealed(const CommittedBatch& cb) = 0;
  virtual void commit_synced() = 0;  // StateSyncHost::sync_completed
};

/// The Commit protocol (Alg. 4) and commit-reveal at one process: the
/// machine owns CommitState, the ledger and its chain hash, and the reveal
/// state; the host does the I/O, in the order the transitions ask for it.
/// It is also the node's state-sync host, since a transfer reads and
/// installs this ledger.
///
/// Reveal state (the INIT and the shares so far) exists for every committed
/// but unrevealed entry, for accepted entries not yet committed, and for
/// ciphers whose SHARES came first; it is erased at reveal. A committed
/// cipher is found through CommitState's accepted index and the ledger's
/// (seq, cipher_id) order.
class CommitMachine final : public statesync::StateSyncHost {
 public:
  CommitMachine(CommitHost& host, NodeId self, const Config& config,
                const crypto::KeyRegistry& registry, NodeStats& stats);

  // --- inputs (Alg. 4) ---

  /// A replica's piggyback (lines 79-82).
  void apply_status(NodeId from, const StatusPiggyback& status);
  /// Merges one accepted entry (own decision, peer delta, resync reply),
  /// attaching its cipher or pulling it from `from`.
  void merge_accepted(const AcceptedEntry& entry, NodeId from);
  /// A validated INIT joined the pending set P (lines 65-66).
  void add_pending(const crypto::Digest& cipher_id, SeqNum seq) {
    commit_.add_pending(cipher_id, seq);
  }
  /// Its instance resolved, accepted or not (lines 70-73).
  void resolve_pending(const crypto::Digest& cipher_id) {
    commit_.resolve_pending(cipher_id);
  }
  /// This process adopted `init`: the cipher for the reveal state waiting.
  void on_init(const std::shared_ptr<const InitMsg>& init);
  void on_shares(NodeId from, const SharesMsg& m);

  /// Recomputes the watermarks and, when `extract`, commits the wave now
  /// committable and releases its shares. True when a wave committed.
  bool try_commit(bool extract);

  /// The piggyback's min-pending and, on a broadcast, accepted delta.
  void fill_status(StatusPiggyback& status, bool broadcast);

  void set_reveal_hook(std::function<void(const CommittedBatch&)> hook) {
    reveal_hook_ = std::move(hook);
  }
  void set_journal(storage::DurableJournal* journal) { journal_ = journal; }
  storage::DurableJournal* journal() const { return journal_; }
  /// A fresh own instance index, past every own instance proposed or
  /// learned of: a restarted node that lost its journal learns its earlier
  /// ids from accepted entries and synced prefixes.
  std::uint64_t take_proposal_index() { return next_own_index_++; }

  // --- durability ---

  void fill_snapshot(storage::Snapshot& snap) const;  // the ledger side
  /// Re-seeds a fresh machine, before the journal is attached.
  void restore(const storage::RecoveredState& recovered);

  // --- StateSyncHost (driven by the node's StateSyncManager) ---

  NodeId sync_self() const override { return self_; }
  void send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) override {
    host_.send_msg(to, std::move(msg));
  }
  void broadcast_msg(std::shared_ptr<LyraMsg> msg) override {
    host_.broadcast_msg(std::move(msg));
  }
  std::uint64_t arm_timer(TimeNs delay, std::function<void()> fn) override {
    return host_.arm_timer(delay, std::move(fn));
  }
  void sync_charge_hash(std::size_t bytes) override {
    charge(config_.costs.hash_cost(bytes));
  }
  std::uint64_t sync_ledger_length() const override { return ledger_.size(); }
  std::vector<AcceptedEntry> sync_committed_entries(
      std::uint64_t first, std::size_t count) const override;
  bool sync_lookup_reveal(const crypto::Digest& cipher_id,
                          crypto::Digest& payload_digest,
                          std::uint32_t& tx_count,
                          Bytes& payload) const override;
  bool sync_verify_payload(BytesView payload,
                           const crypto::Digest& digest) const override {
    return crypto::payload_digest(config_.obfuscate, payload) == digest;
  }
  bool sync_install_prefix(const std::vector<AcceptedEntry>& entries) override;
  std::vector<crypto::Digest> sync_unrevealed(
      std::size_t limit) const override;
  bool sync_install_payload(const crypto::Digest& cipher_id,
                            const Bytes& payload,
                            const crypto::Digest& payload_digest,
                            std::uint32_t tx_count) override;
  void sync_completed() override { host_.commit_synced(); }

  // --- read side ---

  const CommitState& state() const { return commit_; }
  const std::vector<CommittedBatch>& ledger() const { return ledger_; }
  crypto::Digest chain_hash() const { return chain_hash_; }
  /// Ciphers holding reveal state (see the class comment).
  std::size_t pending_reveals() const { return pending_.size(); }
  /// The ledger entry of a committed cipher; null when not committed.
  const CommittedBatch* committed_entry(const crypto::Digest& cipher_id) const;

 private:
  struct PendingReveal {  // a cipher's reveal state
    std::shared_ptr<const InitMsg> init;  // null until the cipher is here
    std::vector<crypto::VssShare> shares;
  };

  void charge(TimeNs base) { host_.commit_charge(config_.crypto_cost(base)); }
  CommittedBatch* committed_entry(const crypto::Digest& cipher_id) {
    return const_cast<CommittedBatch*>(
        std::as_const(*this).committed_entry(cipher_id));
  }
  /// The one commit step, for extraction, recovery and state-sync install:
  /// appends, extends the chain hash, moves the cursor, journals, and
  /// checks the ledger order. Returns the entry's reveal state (null when
  /// `rec` was revealed before a crash). Callers charge their own CPU.
  PendingReveal* commit_step(const storage::LedgerEntryRecord& rec);
  /// Shares and reveals an entry whose cipher arrived after its commit.
  void on_cipher_for_committed(CommittedBatch& cb, PendingReveal& p);
  /// Derives this node's share of a committed entry into `out`.
  void release_share(CommittedBatch& cb, PendingReveal& p, SharesMsg& out);
  void try_reveal(const crypto::Digest& cipher_id, PendingReveal& p);
  void finalize_reveal(CommittedBatch& cb,
                       std::shared_ptr<const Bytes> payload);

  CommitHost& host_;
  NodeId self_;
  const Config& config_;
  crypto::Signer signer_;
  crypto::Vss vss_;
  NodeStats& stats_;
  CommitState commit_;
  std::vector<CommittedBatch> ledger_;
  crypto::Digest chain_hash_{};
  std::unordered_map<crypto::Digest, PendingReveal, crypto::DigestHash>
      pending_;
  std::uint64_t next_own_index_ = 0;
  std::function<void(const CommittedBatch&)> reveal_hook_;
  storage::DurableJournal* journal_ = nullptr;
};

}  // namespace lyra::core
