#pragma once

#include <string>
#include <vector>

#include "fuzz/fault_program.hpp"
#include "fuzz/invariants.hpp"
#include "harness/experiment.hpp"

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

  /// The experiment driver's summary of the run (commits, restarts,
  /// resubmissions, late accepts, state sync, open-loop counters).
  harness::RunResult run;
  // What only the fuzz hooks read at the end of the run.
  std::size_t min_ledger = 0;
  std::size_t max_ledger = 0;  ///< progress_ledger_length() at the end
  std::uint64_t partitioned_messages = 0;
  std::uint64_t delayed_messages = 0;

  bool ok() const { return !invalid_plan && violations.empty(); }
};

/// Runs the deployment the plan describes through harness::run_experiment,
/// with hooks that install the adversary, schedule the workload faults and
/// sweep the invariant registry during and after the run. Deterministic:
/// same plan, same report.
RunReport run_plan(const ScenarioPlan& plan, const RunOptions& opts = {});

}  // namespace lyra::fuzz
