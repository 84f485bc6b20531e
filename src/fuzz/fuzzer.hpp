#pragma once

#include <functional>
#include <string>
#include <vector>

#include "fuzz/fault_program.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/runner.hpp"

namespace lyra::fuzz {

struct FuzzOptions {
  std::uint64_t start_seed = 1;
  std::size_t num_seeds = 20;
  /// Shrink every failing program to a minimal reproducer.
  bool minimize = true;
  std::size_t max_minimize_runs = 250;
  /// Directory for replayable failure artifacts ("" = don't write).
  std::string artifact_dir;
  /// Progress/diagnostic sink (nullptr = quiet).
  std::function<void(const std::string&)> log;
  /// Stop after the first failing seed (the CI mutation check wants the
  /// earliest witness, not a catalogue).
  bool stop_on_failure = false;
};

struct SeedResult {
  std::uint64_t seed = 0;
  RunReport report;            ///< the original (unshrunk) failure
  bool minimized = false;
  MinimizeResult minimized_result;
  std::string artifact_path;   ///< non-empty if an artifact was written
};

struct FuzzSummary {
  std::size_t seeds_run = 0;
  std::vector<SeedResult> failures;
  bool ok() const { return failures.empty(); }
};

/// Generates and runs `num_seeds` fault programs starting at `start_seed`,
/// minimizing and archiving every failure.
FuzzSummary fuzz(const FuzzOptions& options);

/// Runs one serialized fault program (corpus entry or failure artifact).
/// `path` must hold serialize_plan() output; comment lines are ignored.
bool load_plan_file(const std::string& path, ScenarioPlan& plan,
                    std::string& error);

/// Writes `plan` (with its violations as comment lines) under `dir`,
/// named by seed and fault count. Returns the path, or "" on IO failure.
std::string write_artifact(const std::string& dir, const ScenarioPlan& plan,
                           const std::vector<Violation>& violations);

}  // namespace lyra::fuzz
