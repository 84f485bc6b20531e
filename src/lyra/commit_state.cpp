#include "lyra/commit_state.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace lyra::core {

SeqNum quorum_low_watermark(const std::vector<SeqNum>& values,
                            std::size_t quorum, std::vector<SeqNum>& known) {
  known.clear();
  for (SeqNum v : values) {
    if (v != kNoSeq) known.push_back(v);
  }
  if (known.size() < quorum) return kNoSeq;
  // The minimum of the `quorum` highest values is the quorum-th largest:
  // Byzantine peers reporting artificially low values cannot hold the
  // watermark back (Alg. 4 lines 83-85).
  std::nth_element(known.begin(), known.begin() + (quorum - 1), known.end(),
                   std::greater<SeqNum>());
  return known[quorum - 1];
}

CommitState::CommitState(const Config& config)
    : config_(&config),
      peer_locked_(config.n, kNoSeq),
      peer_min_pending_(config.n, kNoSeq),
      peer_status_counter_(config.n, 0) {}

void CommitState::add_pending(const crypto::Digest& cipher_id, SeqNum seq) {
  const auto [it, inserted] = pending_.emplace(cipher_id, seq);
  if (inserted) pending_seqs_.insert(seq);
}

void CommitState::resolve_pending(const crypto::Digest& cipher_id) {
  const auto it = pending_.find(cipher_id);
  if (it == pending_.end()) return;
  const auto seq_it = pending_seqs_.find(it->second);
  LYRA_ASSERT(seq_it != pending_seqs_.end(), "pending multiset out of sync");
  pending_seqs_.erase(seq_it);
  pending_.erase(it);
}

SeqNum CommitState::min_pending() const {
  return pending_seqs_.empty() ? kMaxSeq : *pending_seqs_.begin();
}

bool CommitState::add_accepted(const AcceptedEntry& entry) {
  const auto [it, inserted] =
      accepted_index_.try_emplace(entry.cipher_id, entry.seq);
  if (!inserted) return false;
  accepted_ordered_.emplace(std::pair{entry.seq, entry.cipher_id}, entry);
  delta_buffer_.push_back(entry);
  if (handed_out_watermark_ != kNoSeq &&
      std::pair{entry.seq, entry.cipher_id} <= cursor_) {
    ++late_accepts_;  // would violate prefix completeness (Lemma 6)
  }
  return true;
}

void CommitState::on_status(NodeId from, const StatusPiggyback& status) {
  if (from >= peer_locked_.size()) return;
  if (status.counter <= peer_status_counter_[from] && status.counter != 0) {
    return;  // stale (per-channel FIFO makes this rare, but peers restart)
  }
  peer_status_counter_[from] = status.counter;
  peer_locked_[from] = std::max(peer_locked_[from], status.locked);
  peer_min_pending_[from] = status.min_pending;
}

bool CommitState::recompute() {
  const std::size_t q = config_->quorum();
  locked_ = quorum_low_watermark(peer_locked_, q, watermark_buffer_);

  const SeqNum pending_watermark =
      quorum_low_watermark(peer_min_pending_, q, watermark_buffer_);
  stable_ = (locked_ == kNoSeq || pending_watermark == kNoSeq)
                ? kNoSeq
                : std::min(locked_, pending_watermark);

  const SeqNum before = committed_;
  if (stable_ != kNoSeq) {
    // committed = max accepted sequence number <= stable (Alg. 4 line 87).
    auto last = accepted_ordered_.lower_bound(
        std::pair{stable_ + 1, crypto::Digest{}});
    if (last != accepted_ordered_.begin()) {
      --last;
      committed_ = std::max(committed_, last->first.first);
    }
  }
  return committed_ != before;
}

bool CommitState::has_pending_at_or_below(SeqNum x) const {
  return !pending_seqs_.empty() && *pending_seqs_.begin() <= x;
}

std::vector<AcceptedEntry> CommitState::take_committable() {
  std::vector<AcceptedEntry> out;
  if (committed_ == kNoSeq) return out;
  // wait-pending (Alg. 4 line 90): a pending transaction inside the
  // committed prefix must resolve first; BOC termination guarantees it
  // will.
  if (has_pending_at_or_below(committed_)) return out;

  auto it = handed_out_watermark_ == kNoSeq
                ? accepted_ordered_.begin()
                : accepted_ordered_.upper_bound(cursor_);
  const auto end = accepted_ordered_.lower_bound(
      std::pair{committed_ + 1, crypto::Digest{}});
  for (; it != end; ++it) {
    out.push_back(it->second);
    mark_extracted(it->second);
  }
  return out;
}

std::vector<AcceptedEntry> CommitState::accepted_after(
    SeqNum cursor_seq, const crypto::Digest& cursor_id) const {
  std::vector<AcceptedEntry> out;
  auto it = cursor_seq == kNoSeq
                ? accepted_ordered_.begin()
                : accepted_ordered_.upper_bound(std::pair{cursor_seq,
                                                          cursor_id});
  for (; it != accepted_ordered_.end(); ++it) out.push_back(it->second);
  return out;
}

void CommitState::mark_extracted(const AcceptedEntry& entry) {
  const std::pair key{entry.seq, entry.cipher_id};
  if (handed_out_watermark_ == kNoSeq || cursor_ < key) {
    cursor_ = key;
    handed_out_watermark_ = entry.seq;
  }
  committed_ = std::max(committed_, entry.seq);
}

void CommitState::install(const AcceptedEntry& entry) {
  const auto [it, inserted] =
      accepted_index_.try_emplace(entry.cipher_id, entry.seq);
  if (!inserted) return;
  accepted_ordered_.emplace(std::pair{entry.seq, entry.cipher_id}, entry);
}

std::vector<AcceptedEntry> CommitState::drain_accepted_delta() {
  std::vector<AcceptedEntry> out;
  out.swap(delta_buffer_);
  return out;
}

}  // namespace lyra::core
