#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fuzz/fault_program.hpp"

namespace lyra::harness {
class LyraCluster;
class PompeCluster;
}  // namespace lyra::harness

namespace lyra::fuzz {

/// One broken property. `invariant` names the registry entry; `detail` is
/// the concrete witness (node ids, positions, counts) a human needs to
/// triage the seed without re-running it under a debugger.
struct Violation {
  std::string invariant;
  std::string detail;
  TimeNs at = 0;
};

/// Everything a check may look at. Exactly one cluster pointer is set.
/// The registry never mutates the cluster — checks run inside
/// harness-level events of a live simulation, so a sweep must not perturb
/// the schedule it observes.
struct CheckContext {
  const ScenarioPlan* plan = nullptr;
  harness::LyraCluster* lyra = nullptr;
  harness::PompeCluster* pompe = nullptr;
  TimeNs now = 0;
  /// False for the periodic in-run sweeps (safety properties only); true
  /// for the end-of-run sweep that adds convergence/liveness checks.
  bool final_phase = false;
  /// Longest correct ledger observed when the last fault ended; the
  /// post-fault progress check needs the before/after pair.
  std::size_t ledger_at_last_fault = 0;
  std::vector<bool> is_byz;  ///< per consensus node
};

/// The ledger length post-fault-progress compares across the last fault:
/// the shortest Pompē ledger, the longest Lyra one.
std::size_t progress_ledger_length(const CheckContext& ctx);

using CheckFn = void (*)(const CheckContext&, std::vector<Violation>&);

/// Named machine-checked properties. The standard() registry encodes the
/// paper's resilience claims (docs/FUZZING.md lists each with its source):
///
///   prefix-agreement        pairwise ledger prefix match, correct nodes
///   ledger-order            ledger strictly ordered by (seq, cipher_id)
///   no-dup-commit           no cipher or instance committed twice
///   per-sender-order        per-proposer instance indexes in order
///   lambda-fairness         late_accepts == 0 on correct nodes (Lemma 6)
///   resync-gate-quorum      gate reopened only after f+1 peer replies
///   mempool-no-double-commit  an admitted tx enters the order at most once
///   recovery-convergence    every restart resolved, resync gates open
///   post-fault-progress     commits after the last fault window
///   open-loop-resolution    every open-loop tx commits or terminally rejects
///   carve-settlement        a waited-on tx is pending, in flight or committed
///   client-resubmit-lag     resubmit timer fires at the earliest deadline
class InvariantRegistry {
 public:
  struct Entry {
    std::string name;
    bool during = true;  ///< run in periodic sweeps, not just at the end
    CheckFn fn = nullptr;
  };

  void add(std::string name, bool during, CheckFn fn) {
    entries_.push_back({std::move(name), during, fn});
  }

  /// Runs every applicable check; appends one Violation per broken
  /// property occurrence.
  std::vector<Violation> run(const CheckContext& ctx) const;

  const std::vector<Entry>& entries() const { return entries_; }

  static InvariantRegistry standard();

 private:
  std::vector<Entry> entries_;
};

}  // namespace lyra::fuzz
