#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "workload/types.hpp"

namespace lyra::workload {

struct MempoolStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;  // newcomer refused (fee too low, pool full)
  std::uint64_t evicted = 0;        // resident pushed out by a higher bid
  std::uint64_t duplicates = 0;     // resubmission of a known tx, dropped
  std::uint64_t carved = 0;         // handed to batch formation
  std::uint64_t reinstated = 0;     // returned from a dropped batch
};

/// Bounded max-fee priority pool in front of batch formation. Ties broken
/// by tx id so admission, eviction, and carve order are fully
/// deterministic. Both LyraNode and PompeNode own one (when
/// `mempool_capacity > 0`) and speak the same backpressure protocol: a
/// rejected or evicted transaction earns its client a MempoolReject, and
/// the client retries with backoff.
class Mempool {
 public:
  enum class Outcome : std::uint8_t {
    kAdmitted = 0,
    kRejected = 1,   // refused; the client should back off and retry
    kDuplicate = 2,  // already pending or carved; dropped silently
  };
  struct Admission {
    Outcome outcome = Outcome::kRejected;
    /// Lower-fee residents displaced to make room (each owed a reject).
    std::vector<WorkloadTx> evicted;
  };

  explicit Mempool(std::size_t capacity);

  Admission admit(const WorkloadTx& tx);

  /// Removes and returns up to `max_txs` highest-priority transactions in
  /// carve order. Carved ids stay known, so a straggling retry of an
  /// in-flight transaction is dropped as a duplicate rather than
  /// re-executed. Every carved id must later be settled exactly one way:
  /// confirm() when its batch commits, reinstate() when its batch is
  /// dropped.
  std::vector<WorkloadTx> take(std::size_t max_txs);

  /// Batch containing these carved ids committed: the ids stay known
  /// forever (late retries keep deduping) but the carve-side bookkeeping
  /// is released. Unknown ids are ignored.
  void confirm(const std::vector<std::uint64_t>& ids);

  /// Batch containing these carved ids was dropped without committing
  /// (e.g. the proposer gave up after max resubmissions): forget the ids
  /// and re-admit the stashed transactions so they compete for the next
  /// carve. Returns the transactions that could NOT be re-admitted
  /// (refused or displaced under current pressure) — each is owed a
  /// MempoolReject so its client's retry ladder takes over. Unknown ids
  /// are ignored.
  std::vector<WorkloadTx> reinstate(const std::vector<std::uint64_t>& ids);

  /// Shrinks or grows the bound; shrinking evicts the lowest-priority
  /// residents, which are returned (each owed a reject). Used by the fuzz
  /// admission-flap fault.
  std::vector<WorkloadTx> set_capacity(std::size_t capacity);

  std::size_t size() const { return by_id_.size(); }
  bool empty() const { return by_id_.empty(); }
  std::size_t capacity() const { return capacity_; }
  bool knows(std::uint64_t id) const { return seen_.count(id) != 0; }
  /// The id is admitted and waiting for the next carve.
  bool pending(std::uint64_t id) const { return by_id_.count(id) != 0; }
  /// The id was carved into a batch that has not been settled yet
  /// (neither confirm()ed nor reinstate()d).
  bool in_flight(std::uint64_t id) const { return carved_.count(id) != 0; }
  const MempoolStats& stats() const { return stats_; }

 private:
  struct Key {
    std::uint64_t fee;
    std::uint64_t id;
    bool operator<(const Key& o) const {
      if (fee != o.fee) return fee > o.fee;  // highest fee first
      return id < o.id;
    }
  };

  WorkloadTx evict_lowest();

  std::size_t capacity_;
  std::set<Key> order_;
  std::map<std::uint64_t, WorkloadTx> by_id_;
  // Pending, carved-in-flight, and committed ids. Evicted/rejected ids are
  // NOT kept here: their clients retry, and the retry must be admissible.
  // Carved ids leave again via reinstate() if their batch is dropped, so a
  // never-committed tx is never deduplicated into oblivion.
  std::unordered_set<std::uint64_t> seen_;
  // Carved transactions awaiting confirm()/reinstate(), keyed by id.
  std::map<std::uint64_t, WorkloadTx> carved_;
  MempoolStats stats_;
};

}  // namespace lyra::workload
