#pragma once

#include <cstddef>
#include <functional>

#include "fuzz/fault_program.hpp"
#include "fuzz/runner.hpp"

namespace lyra::fuzz {

struct MinimizeResult {
  ScenarioPlan plan;                  ///< smallest still-failing program
  std::vector<Violation> violations;  ///< what the minimized plan trips
  std::size_t oracle_runs = 0;        ///< simulations spent shrinking
};

/// Greedy delta-debugging over the fault-program grammar: repeatedly try
/// dropping whole faults, turning off configuration axes (resubmission,
/// state sync), shrinking windows and the run itself, and reducing n —
/// keeping any candidate that still violates one of the invariants the
/// original plan tripped (accepting any violation would let the reproducer
/// drift onto an unrelated bug mid-shrink). Deterministic: candidate order
/// is fixed and the oracle is the deterministic runner.
MinimizeResult minimize_plan(
    const ScenarioPlan& failing, std::size_t max_runs = 250,
    const std::function<void(const std::string&)>& log = nullptr);

}  // namespace lyra::fuzz
