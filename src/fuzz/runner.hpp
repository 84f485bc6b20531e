#pragma once

#include <string>
#include <vector>

#include "fuzz/fault_program.hpp"
#include "fuzz/invariants.hpp"

namespace lyra::fuzz {

struct RunOptions {
  /// Cadence of the in-run safety sweeps. Each sweep is a harness-level
  /// event that reads cross-node state between handler runs.
  TimeNs check_interval = ms(250);
};

/// Outcome of executing one fault program.
struct RunReport {
  ScenarioPlan plan;
  std::vector<Violation> violations;
  bool invalid_plan = false;
  std::string error;  ///< set iff invalid_plan

  // Run summary, for logs and reports.
  std::uint64_t committed_txs = 0;
  std::size_t min_ledger = 0;
  std::size_t max_ledger = 0;
  std::uint64_t restarts = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t late_accepts = 0;
  std::uint64_t partitioned_messages = 0;
  std::uint64_t delayed_messages = 0;
  std::uint64_t sync_installs_refused = 0;
  // Open-loop plans only (all zero otherwise).
  std::uint64_t offered_txs = 0;
  std::uint64_t backpressure_rejects = 0;
  std::uint64_t terminal_rejects = 0;

  bool ok() const { return !invalid_plan && violations.empty(); }
};

/// Builds the cluster the plan describes, installs the adversary,
/// schedules every fault, and sweeps the invariant registry during and
/// after the run. Deterministic: same plan, same report.
RunReport run_plan(const ScenarioPlan& plan, const RunOptions& opts = {});

}  // namespace lyra::fuzz
