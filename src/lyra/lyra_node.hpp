#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/vss.hpp"
#include "lyra/batching.hpp"
#include "lyra/boc_machine.hpp"
#include "lyra/commit_state.hpp"
#include "lyra/config.hpp"
#include "lyra/messages.hpp"
#include "net/network.hpp"
#include "ordering/distance_table.hpp"
#include "ordering/ordering_clock.hpp"
#include "sim/process.hpp"
#include "statesync/manager.hpp"
#include "storage/journal.hpp"
#include "storage/recovery.hpp"
#include "support/stats.hpp"

namespace lyra::core {

/// An own batch on its way through consensus.
struct PendingBatch {
  BatchAssembler::Carved carved;
  std::uint32_t attempts = 0;  // resubmissions after rejection
};

/// One entry of the node's SMR output: a committed (and eventually
/// revealed) batch, in commit order.
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
  /// share_or_publish in lyra_node.cpp).
  std::shared_ptr<const Bytes> payload;

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

/// A Lyra SMR node: feeds every instance it observes to its BOC machine
/// (Alg. 1-3), runs the Commit protocol (Alg. 4) over the accepted
/// transactions, and the commit-reveal scheme on top. Byzantine behaviours
/// subclass this and override the virtual hooks.
class LyraNode : public BatchingNode,
                 public statesync::StateSyncHost,
                 private BocHost {
 public:
  LyraNode(sim::Simulation* sim, net::Network* network, NodeId id,
           const Config& config, const crypto::KeyRegistry* registry);

  void on_start() override;

  // --- read-side API ---
  const Config& config() const { return config_; }
  const std::vector<CommittedBatch>& ledger() const { return ledger_; }
  const NodeStats& stats() const { return stats_; }
  const CommitState& commit_state() const { return commit_; }
  const ordering::DistanceTable& distances() const { return distances_; }
  crypto::Digest chain_hash() const { return chain_hash_; }
  bool warmed_up() const { return warmed_up_; }
  /// True while a restarted node still gates extraction on peer resync.
  bool resync_pending() const { return resync_pending_; }
  /// Distinct non-self repliers counted when the resync gate last opened
  /// (0 = gate never opened post-restart). Lemma 6 needs f+1 of them; the
  /// fuzzer's resync-gate-quorum invariant checks this directly because
  /// the miscount is unobservable from ledgers alone under <= f faults.
  std::uint32_t resync_peer_replies_at_open() const {
    return resync_peer_replies_at_open_;
  }
  /// Last status-update counter published (epoch-strided on restart).
  std::uint64_t status_counter() const { return status_counter_; }
  SeqNum clock_now() const { return clock_.now(); }
  /// The BOC instances this node takes part in (live until GC).
  const BocMachine& boc() const { return boc_; }
  /// Own proposals not yet rejected or committed.
  std::size_t outstanding_proposals() const { return own_proposals_.size(); }

  /// Invoked for every batch as soon as its payload is revealed, in commit
  /// order per node (execution layer hook: KV store, AMM, ...).
  void set_reveal_hook(std::function<void(const CommittedBatch&)> hook) {
    reveal_hook_ = std::move(hook);
  }

  // --- durability (src/storage) ---

  /// Installs the durability backend (nullptr = volatile node, the
  /// default; hot paths then pay only an untaken branch). The journal must
  /// outlive the node.
  void set_journal(storage::DurableJournal* journal) { journal_ = journal; }
  storage::DurableJournal* journal() const { return journal_; }

  /// Point-in-time image of the durable state, fed to
  /// DurableJournal::write_snapshot.
  storage::Snapshot make_snapshot() const;

  /// Re-seeds a freshly constructed node from recovered on-disk state.
  /// Call before on_start(): rebuilds the accepted set, ledger, chain
  /// hash, and reveal bookkeeping, and skips the status counter to a new
  /// epoch so this incarnation's piggybacks never look stale to peers.
  void restore(const storage::RecoveredState& recovered);

  // --- peer state transfer & catch-up (src/statesync) ---

  /// Creates this node's StateSyncManager so it serves peer sync requests
  /// and can itself sync/catch up. Without it, 4xx messages are dropped.
  void enable_state_sync(statesync::StateSyncConfig cfg = {});
  statesync::StateSyncManager* statesync() { return statesync_.get(); }
  const statesync::StateSyncManager* statesync() const {
    return statesync_.get();
  }

  // StateSyncHost (callbacks driven by the manager; public because the
  // interface is, but not meant for direct use).
  NodeId sync_self() const override;
  void sync_charge_hash(std::size_t bytes) override;
  std::uint64_t sync_ledger_length() const override;
  std::vector<AcceptedEntry> sync_committed_entries(
      std::uint64_t first, std::size_t count) const override;
  bool sync_lookup_reveal(const crypto::Digest& cipher_id,
                          crypto::Digest& payload_digest,
                          std::uint32_t& tx_count,
                          Bytes& payload) const override;
  bool sync_verify_payload(BytesView payload,
                           const crypto::Digest& digest) const override;
  bool sync_install_prefix(const std::vector<AcceptedEntry>& entries) override;
  std::vector<crypto::Digest> sync_unrevealed(std::size_t limit) const override;
  bool sync_install_payload(const crypto::Digest& cipher_id,
                            const Bytes& payload,
                            const crypto::Digest& payload_digest,
                            std::uint32_t tx_count) override;
  void sync_completed() override;

 protected:
  void on_message(const sim::Envelope& env) override;

  // --- Byzantine-overridable behaviour hooks ---

  /// validation-function (Alg. 4 lines 62-69): Eq. 1 prediction check,
  /// acceptance window, and the §VI-D future bound.
  virtual bool validate_init(const InitMsg& m, SeqNum perceived,
                             SeqNum requested) const;

  /// S_t = {s_ref + d_ij} (Alg. 2 line 28).
  virtual std::vector<SeqNum> build_predictions(SeqNum s_ref) const;

  /// Commit-protocol piggyback values (Alg. 4 lines 74-77).
  virtual void fill_status(StatusPiggyback& status, bool broadcast);

  /// Whether to take part in an instance at all (silent-Byzantine hook).
  virtual bool participate(const InstanceId& inst) const;

  // --- proposing: the outstanding-proposal window and NIC pacing ---
  void maybe_propose() override;
  void flush_partial_batch() override;
  void propose_batch(PendingBatch batch);

  // --- message handlers ---
  void handle_init(const sim::Envelope& env, const InitMsg& m);
  void handle_vote(const sim::Envelope& env, const VoteMsg& m);
  /// Hands a DELIVER, EST, COORD or AUX to the BOC machine.
  template <class Msg>
  void to_boc(const sim::Envelope& env,
              void (BocMachine::*handle)(NodeId, const Msg&)) {
    const auto& m = static_cast<const Msg&>(*env.payload);
    if (participate(m.inst)) (boc_.*handle)(env.from, m);
  }
  void handle_shares(const sim::Envelope& env, const SharesMsg& m);
  void handle_probe(const sim::Envelope& env, const ProbeMsg& m);
  void handle_probe_reply(const sim::Envelope& env, const ProbeReplyMsg& m);
  void handle_req_init(const sim::Envelope& env);
  void handle_init_relay(const sim::Envelope& env);
  void handle_resync_req(const sim::Envelope& env, const ResyncReqMsg& m);
  void handle_resync_reply(const sim::Envelope& env, const ResyncReplyMsg& m);

  /// Broadcasts the post-restart accepted-set pull; re-arms itself until
  /// f+1 peers answered (see ResyncReqMsg in messages.hpp).
  void send_resync_request();

  // --- Commit protocol / reveal ---
  void apply_status(NodeId from, const StatusPiggyback& status);
  void merge_accepted(const AcceptedEntry& entry, NodeId learned_from);
  void try_commit();
  /// The one ledger append, shared by extraction, recovery and sync
  /// install: marks the entry's reveal record committed, pushes its
  /// CommittedBatch, extends the chain hash and journals the commit.
  /// Callers charge their own CPU.
  struct RevealRecord;
  RevealRecord& append_committed(const AcceptedEntry& entry);
  /// Derives and records this node's decryption share for a committed
  /// entry and adds it to `out` for broadcast.
  void release_share(const crypto::Digest& cipher_id, RevealRecord& rec,
                     SharesMsg& out);
  void try_reveal(const crypto::Digest& cipher_id);
  /// Runs when the cipher of an already-committed entry finally arrives
  /// (Byzantine broadcaster path): share + reveal catch-up.
  void on_cipher_for_committed(const crypto::Digest& cipher_id);
  void finalize_reveal(const crypto::Digest& cipher_id,
                       std::shared_ptr<const Bytes> payload);
  /// Commit-notifies and settles a revealed own batch (or replays the
  /// notification of one a pre-crash incarnation proposed).
  void settle_own_batch(const CommittedBatch& cb);
  /// Re-inputs an own batch that did not commit (Lemma 8), up to the
  /// resubmission cap.
  void resubmit(PendingBatch batch);
  /// True while a snapshot transfer runs: the node neither extracts nor
  /// proposes until the install names its committed prefix.
  bool syncing() const {
    return statesync_ != nullptr && statesync_->sync_active();
  }

  // --- helpers ---
  crypto::Digest compute_value_id(const InstanceId& inst,
                                  const crypto::Digest& cipher_id,
                                  const std::vector<SeqNum>& preds) const;
  // Every Lyra message leaves through these two, BocHost's and
  // StateSyncHost's too: they fill the Commit-protocol piggyback.
  void send_msg(NodeId to, std::shared_ptr<LyraMsg> msg) override {
    fill_status(msg->status, /*broadcast=*/false);
    send(to, std::move(msg));
  }
  void broadcast_msg(std::shared_ptr<LyraMsg> msg) override {
    fill_status(msg->status, /*broadcast=*/true);
    broadcast(std::move(msg));
  }
  TimeNs ccost(TimeNs base) const { return config_.crypto_cost(base); }

  // --- state ---
  Config config_;
  const crypto::KeyRegistry* registry_;
  crypto::Signer signer_;
  crypto::Vss vss_;
  ordering::OrderingClock clock_;
  ordering::DistanceTable distances_;
  CommitState commit_;

  BocMachine boc_;
  std::uint64_t next_proposal_index_ = 0;

  // Proposer-side batch state.
  TimeNs next_proposal_at_ = 0;  // NIC pacing floor
  /// An own proposal from propose_batch until it settles: rejection in
  /// decide() or commit in settle_own_batch(). Its size is the pacing
  /// window.
  struct OwnProposal {
    PendingBatch batch;
    SeqNum s_ref = kNoSeq;
    TimeNs proposed_at = 0;
    crypto::Digest cipher_id{};
  };
  std::unordered_map<InstanceId, OwnProposal> own_proposals_;
  /// Own batches recovered from disk whose clients were never
  /// commit-notified (payload is gone; only the notification chunks
  /// survive). Kept apart from own_proposals_ so they neither consume
  /// proposal slots nor look re-proposable.
  std::unordered_map<InstanceId, std::vector<Chunk>> pending_notify_;

  // Reveal state per accepted cipher.
  struct RevealRecord {
    /// The INIT carrying this entry's cipher, shared with the instance
    /// that adopted it. Set with have_cipher; dropped again at reveal,
    /// while have_cipher stays set.
    std::shared_ptr<const InitMsg> init;
    bool have_cipher = false;
    InstanceId inst;
    SeqNum seq = kNoSeq;
    std::uint32_t tx_count = 0;
    std::vector<crypto::VssShare> shares;
    bool committed = false;
    bool share_broadcast = false;
    bool revealed = false;
    std::size_t ledger_slot = 0;
    /// Digest of the revealed payload (zero until known). Kept after the
    /// payload bytes are dropped so this node can serve state-sync digest
    /// votes; persisted via the reveal WAL record and snapshots.
    crypto::Digest payload_digest{};
  };
  std::unordered_map<crypto::Digest, RevealRecord, crypto::DigestHash>
      reveal_;

  std::vector<CommittedBatch> ledger_;
  crypto::Digest chain_hash_{};
  NodeStats stats_;

  bool warmed_up_ = false;
  std::size_t probes_sent_ = 0;
  std::uint64_t status_counter_ = 0;
  std::function<void(const CommittedBatch&)> reveal_hook_;
  storage::DurableJournal* journal_ = nullptr;
  std::unique_ptr<statesync::StateSyncManager> statesync_;

  // Post-restart resync gate: no commit extraction until f+1 peers
  // answered the accepted-set pull (restore() arms it, see lyra_node.cpp).
  bool resync_pending_ = false;
  std::vector<bool> resync_replied_;
  std::size_t resync_replies_ = 0;
  std::uint32_t resync_peer_replies_ = 0;
  std::uint32_t resync_peer_replies_at_open_ = 0;

  // BocHost (callbacks driven by boc_); arm_timer serves statesync too.
  void boc_charge(TimeNs cost) override { charge(cost); }
  std::uint64_t arm_timer(TimeNs delay, std::function<void()> fn) override {
    return set_timer(delay, std::move(fn));
  }
  void boc_cancel_timer(std::uint64_t id) override { cancel_timer(id); }
  TimeNs boc_now() const override { return now(); }
  bool boc_init_adopted(const BocInstance& b, bool judge) override;
  void boc_decided(const BocInstance& b) override;
};

}  // namespace lyra::core
