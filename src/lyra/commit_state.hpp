#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "crypto/hash.hpp"
#include "lyra/config.hpp"
#include "lyra/messages.hpp"
#include "support/types.hpp"

namespace lyra::core {

/// Bookkeeping of the Commit protocol (Alg. 4): pending and accepted
/// transactions, the per-peer status tables R and S, and the
/// locked / stable / committed watermarks. Pure state machine — the node
/// feeds it events and reads back what to commit; it never touches the
/// network.
class CommitState {
 public:
  explicit CommitState(const Config& config);

  // --- validation-side bookkeeping (Alg. 4 lines 65-66, 70-73) ---

  /// A transaction this node validated joined its pending set P.
  void add_pending(const crypto::Digest& cipher_id, SeqNum seq);

  /// The transaction's BOC instance resolved (accepted or rejected):
  /// removed from P either way.
  void resolve_pending(const crypto::Digest& cipher_id);

  /// min-pending: lowest requested sequence number in P; kMaxSeq when P is
  /// empty (no pending constraint on the stable prefix).
  SeqNum min_pending() const;

  // --- accepted set A (lines 71, 82) ---

  /// Merges one accepted transaction (own decision or peer piggyback).
  /// Returns true if it was new.
  bool add_accepted(const AcceptedEntry& entry);

  std::size_t accepted_count() const { return accepted_index_.size(); }
  /// The sequence number `cipher_id` was accepted at, if it was.
  std::optional<SeqNum> accepted_seq(const crypto::Digest& cipher_id) const {
    const auto it = accepted_index_.find(cipher_id);
    return it == accepted_index_.end() ? std::nullopt
                                       : std::optional<SeqNum>(it->second);
  }

  // --- peer status intake (lines 79-81) ---

  /// Applies a peer's piggybacked status. Stale statuses (counter not
  /// newer than the last applied) update nothing; accepted deltas are
  /// merged by the caller separately.
  void on_status(NodeId from, const StatusPiggyback& status);

  // --- watermarks (lines 83-87) ---

  /// Recomputes locked / stable / committed. Returns true when the
  /// committed watermark advanced.
  bool recompute();

  SeqNum locked() const { return locked_; }
  SeqNum stable() const { return stable_; }
  SeqNum committed() const { return committed_; }

  // --- commit extraction (lines 89-92) ---

  /// wait-pending: true while some locally pending transaction has a
  /// requested sequence number within the committed prefix.
  bool has_pending_at_or_below(SeqNum x) const;

  /// Accepted transactions inside the committed prefix not yet handed out,
  /// ordered by (seq, cipher_id). Empty while wait-pending holds.
  std::vector<AcceptedEntry> take_committable();

  /// Entries accepted since the previous call (for the status piggyback's
  /// accepted_delta).
  std::vector<AcceptedEntry> drain_accepted_delta();

  /// Number of accepted entries that arrived below an already-extracted
  /// commit watermark. Always zero in a correct run (Lemma 6
  /// completeness); integration tests assert on it.
  std::uint64_t late_accepts() const { return late_accepts_; }

  // --- durable storage hooks (storage snapshot / recovery) ---

  /// Accepted entries strictly after the (seq, id) cursor — what a
  /// restarted peer asks for in a ResyncReq; all of A, in (seq, cipher_id)
  /// order, when seq is kNoSeq (a snapshot).
  std::vector<AcceptedEntry> accepted_after(SeqNum cursor_seq,
                                            const crypto::Digest& cursor_id)
      const;

  /// Marks `entry` extracted: the cursor moves up to it (never back) and
  /// the committed watermark covers it, so it is not handed out again.
  /// Extraction, recovery and a state-sync install all commit through it.
  void mark_extracted(const AcceptedEntry& entry);

  /// Inserts an entry recovered from disk or adopted from a peer state
  /// transfer: no delta-buffer announcement (peers saw it before the crash,
  /// or already have it — that is how it got here) and no late-accept count
  /// (a synced entry lands below the synced cursor by construction, which
  /// is installation, not a completeness violation).
  void install(const AcceptedEntry& entry);

 private:
  const Config* config_;

  // P: pending transactions with a multiset of their sequence numbers for
  // O(log) min-pending.
  std::unordered_map<crypto::Digest, SeqNum, crypto::DigestHash> pending_;
  std::multiset<SeqNum> pending_seqs_;

  // A: accepted transactions, indexed by id and ordered by (seq, id).
  std::unordered_map<crypto::Digest, SeqNum, crypto::DigestHash>
      accepted_index_;
  std::map<std::pair<SeqNum, crypto::Digest>, AcceptedEntry> accepted_ordered_;

  // R and S (locally locked prefixes / min-pendings per peer), plus the
  // last applied status counter per peer.
  std::vector<SeqNum> peer_locked_;
  std::vector<SeqNum> peer_min_pending_;
  std::vector<std::uint64_t> peer_status_counter_;

  // Working space of quorum_low_watermark, kept so recompute() does not
  // allocate.
  std::vector<SeqNum> watermark_buffer_;

  SeqNum locked_ = kNoSeq;
  SeqNum stable_ = kNoSeq;
  SeqNum committed_ = kNoSeq;

  // Extraction cursor: everything <= handed_out_ was already returned.
  std::pair<SeqNum, crypto::Digest> cursor_{kNoSeq, crypto::kZeroDigest};
  SeqNum handed_out_watermark_ = kNoSeq;

  std::vector<AcceptedEntry> delta_buffer_;
  std::uint64_t late_accepts_ = 0;
};

/// min over the 2f+1 highest entries of `values` (Alg. 4 lines 83-85);
/// kNoSeq when fewer than 2f+1 entries are known. `buffer` is working
/// space, overwritten on every call. Exposed for unit tests.
SeqNum quorum_low_watermark(const std::vector<SeqNum>& values,
                            std::size_t quorum, std::vector<SeqNum>& buffer);

}  // namespace lyra::core
