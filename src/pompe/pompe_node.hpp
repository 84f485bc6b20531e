#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/keys.hpp"
#include "hotstuff/hotstuff_core.hpp"
#include "lyra/batching.hpp"
#include "lyra/messages.hpp"  // client SubmitMsg / CommitNotifyMsg
#include "net/network.hpp"
#include "ordering/ordering_clock.hpp"
#include "pompe/messages.hpp"
#include "sim/process.hpp"
#include "support/stats.hpp"

namespace lyra::pompe {

/// Parameters of a Pompē deployment: the shared node parameters, so
/// head-to-head runs with Lyra compare like for like, plus the HotStuff
/// leader. Blocks cap at HotStuff's own default size.
struct PompeConfig : core::NodeConfig {
  NodeId initial_leader = 0;
};

struct PompeStats {
  std::uint64_t proposals = 0;        // phase-1 batches started
  std::uint64_t sequenced = 0;        // batches with a timestamp proof
  std::uint64_t committed_batches = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t proof_verifications = 0;  // individual timestamp sigs
};

/// One committed batch in Pompē's output, ordered by assigned timestamp
/// within each committed block.
struct PompeCommitted {
  SeqNum assigned_ts = kNoSeq;
  crypto::Digest batch_digest{};
  NodeId proposer = kNoNode;
  std::uint32_t tx_count = 0;
  TimeNs committed_at = 0;
  std::uint64_t block_height = 0;
};

/// A Pompē replica (Zhang et al., OSDI'20, rebuilt per DESIGN.md): phase 1
/// collects 2f+1 signed timestamps and assigns their median; phase 2 runs
/// the sequenced batches through chained HotStuff. Leader-based: the
/// HotStuff leader carries every batch to every replica.
class PompeNode : public core::BatchingNode {
 public:
  PompeNode(sim::Simulation* sim, net::Network* network, NodeId id,
            const PompeConfig& config, const crypto::KeyRegistry* registry);

  void on_start() override;

  const PompeConfig& config() const { return config_; }
  const std::vector<PompeCommitted>& ledger() const { return ledger_; }
  const PompeStats& stats() const { return stats_; }
  const hotstuff::HotStuffCore& hotstuff() const { return hotstuff_; }
  hotstuff::HotStuffCore& hotstuff() { return hotstuff_; }
  SeqNum clock_now() const { return clock_.now(); }

  /// Payload of a batch this node stores (empty if unknown). Used by the
  /// execution layer and the attack demos.
  const Bytes* batch_payload(const crypto::Digest& digest) const;

  /// Called for every committed batch in execution order.
  void set_commit_hook(std::function<void(const PompeCommitted&)> hook) {
    commit_hook_ = std::move(hook);
  }

 protected:
  void on_message(const sim::Envelope& env) override;

  // --- Byzantine/attack hooks ---
  /// Timestamp this node reports for a batch (Byzantine nodes may skew it).
  virtual SeqNum timestamp_for(const TsRequestMsg& m);
  /// Observation hook: every clear-text batch this node receives in
  /// phase 1 (the front-runner taps this).
  virtual void observe_batch(const TsRequestMsg& m) { (void)m; }

  /// Proposes every full batch: Pompē has no proposal window.
  void maybe_propose() override;
  /// One partial carve per non-empty source.
  void flush_partial_batch() override;
  void propose_carved(Carved carved);
  void handle_ts_request(const sim::Envelope& env, const TsRequestMsg& m);
  void handle_ts_reply(const sim::Envelope& env, const TsReplyMsg& m);
  void handle_sequence(const sim::Envelope& env, const SequenceMsg& m);
  void on_block_commit(const hotstuff::Block& block);

  Bytes ts_message(const crypto::Digest& digest, SeqNum ts) const;
  /// Charges the modeled verify cost, then verifies one signed timestamp.
  /// `count_proof` ticks stats_.proof_verifications.
  bool check_ts_sig(const crypto::Digest& batch_digest, SeqNum ts,
                    const crypto::Signature& sig, NodeId signer,
                    bool count_proof);

  PompeConfig config_;
  const crypto::KeyRegistry* registry_;
  crypto::Signer signer_;
  ordering::OrderingClock clock_;
  hotstuff::HotStuffCore hotstuff_;

  // Own batches in phase 1 until they commit.
  struct OwnBatch {
    Carved carved;
    std::vector<SignedTs> replies;
    std::vector<bool> replied;
    bool sequenced = false;
  };

  std::unordered_map<crypto::Digest, OwnBatch, crypto::DigestHash>
      own_batches_;

  // Batches observed in phase 1 (payload store) and sequencing state.
  struct KnownBatch {
    Bytes payload;
    NodeId proposer = kNoNode;
    std::uint32_t tx_count = 0;
  };
  std::unordered_map<crypto::Digest, KnownBatch, crypto::DigestHash> known_;
  std::vector<hotstuff::BlockEntry> proposable_;
  std::unordered_set<crypto::Digest, crypto::DigestHash> seen_sequenced_;
  std::unordered_set<crypto::Digest, crypto::DigestHash> executed_;

  std::vector<PompeCommitted> ledger_;
  PompeStats stats_;
  std::function<void(const PompeCommitted&)> commit_hook_;
};

}  // namespace lyra::pompe
