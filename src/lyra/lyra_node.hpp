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
#include "lyra/commit_machine.hpp"
#include "lyra/config.hpp"
#include "lyra/messages.hpp"
#include "net/network.hpp"
#include "ordering/distance_table.hpp"
#include "ordering/ordering_clock.hpp"
#include "sim/process.hpp"
#include "statesync/manager.hpp"

namespace lyra::core {

/// An own batch on its way through consensus.
struct PendingBatch {
  BatchAssembler::Carved carved;
  std::uint32_t attempts = 0;  // resubmissions after rejection
};

/// A Lyra SMR node: feeds every instance it observes to its BOC machine
/// (Alg. 1-3) and every accepted one to its commit machine (Alg. 4 and
/// commit-reveal); it proposes, validates, and gates extraction after a
/// restart. Byzantine behaviours subclass this and override the virtual
/// hooks.
class LyraNode : public BatchingNode,
                 private BocHost,
                 private CommitHost {
 public:
  LyraNode(sim::Simulation* sim, net::Network* network, NodeId id,
           const Config& config, const crypto::KeyRegistry* registry);

  void on_start() override;

  // --- read-side API ---
  const Config& config() const { return config_; }
  const std::vector<CommittedBatch>& ledger() const { return commit_.ledger(); }
  const NodeStats& stats() const { return stats_; }
  /// The Commit protocol and reveal state (Alg. 4).
  const CommitMachine& commit() const { return commit_; }
  const ordering::DistanceTable& distances() const { return distances_; }
  crypto::Digest chain_hash() const { return commit_.chain_hash(); }
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
    commit_.set_reveal_hook(std::move(hook));
  }

  // --- durability (src/storage) ---

  /// Installs the durability backend (nullptr = volatile node, the
  /// default; hot paths then pay only an untaken branch). The journal must
  /// outlive the node.
  void set_journal(storage::DurableJournal* journal) {
    commit_.set_journal(journal);
  }
  storage::DurableJournal* journal() const { return commit_.journal(); }

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
  void handle_probe(const sim::Envelope& env, const ProbeMsg& m);
  void handle_probe_reply(const sim::Envelope& env, const ProbeReplyMsg& m);
  void handle_req_init(const sim::Envelope& env);
  void handle_init_relay(const sim::Envelope& env);
  void handle_resync_req(const sim::Envelope& env, const ResyncReqMsg& m);
  void handle_resync_reply(const sim::Envelope& env, const ResyncReplyMsg& m);

  /// Broadcasts the post-restart accepted-set pull; re-arms itself until
  /// f+1 peers answered (see ResyncReqMsg in messages.hpp).
  void send_resync_request();

  /// Runs the Commit protocol (commit_machine.cpp) unless extraction is
  /// gated, and cuts a snapshot when one is due.
  void try_commit();
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
  // Every Lyra message leaves through these two, the machines' and the
  // state-sync manager's too: they fill the Commit-protocol piggyback.
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
  NodeStats stats_;

  BocMachine boc_;
  CommitMachine commit_;

  // Proposer-side batch state.
  TimeNs next_proposal_at_ = 0;  // NIC pacing floor
  /// An own proposal from propose_batch until it settles: rejection in
  /// decide() or commit in commit_own_revealed(). Its size is the pacing
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

  bool warmed_up_ = false;
  std::size_t probes_sent_ = 0;
  std::uint64_t status_counter_ = 0;
  std::unique_ptr<statesync::StateSyncManager> statesync_;

  // Post-restart resync gate: no commit extraction until f+1 peers
  // answered the accepted-set pull (restore() arms it, see lyra_node.cpp).
  bool resync_pending_ = false;
  std::vector<bool> resync_replied_;
  std::size_t resync_replies_ = 0;
  std::uint32_t resync_peer_replies_ = 0;
  std::uint32_t resync_peer_replies_at_open_ = 0;

  // BocHost (callbacks driven by boc_); arm_timer serves commit_ too.
  void boc_charge(TimeNs cost) override { charge(cost); }
  std::uint64_t arm_timer(TimeNs delay, std::function<void()> fn) override {
    return set_timer(delay, std::move(fn));
  }
  void boc_cancel_timer(std::uint64_t id) override { cancel_timer(id); }
  TimeNs boc_now() const override { return now(); }
  bool boc_init_adopted(const BocInstance& b, bool judge) override;
  void boc_decided(const BocInstance& b) override;

  // CommitHost (callbacks driven by commit_).
  void commit_charge(TimeNs cost) override { charge(cost); }
  TimeNs commit_now() const override { return now(); }
  void commit_trace(const char* category,
                    const std::function<std::string()>& text) override {
    if (tracing()) trace(category, text());
  }
  std::shared_ptr<const InitMsg> commit_init_of(
      const InstanceId& inst) const override {
    const BocInstance* b = boc_.find(inst);
    return b != nullptr ? b->init : nullptr;
  }
  void commit_extracted(const CommittedBatch& cb, bool have_cipher) override;
  /// Commit-notifies and settles a revealed own batch (or replays the
  /// notification of one a pre-crash incarnation proposed).
  void commit_own_revealed(const CommittedBatch& cb) override;
  void commit_synced() override;
};

}  // namespace lyra::core
