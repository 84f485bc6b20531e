#include "fuzz/fuzzer.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace lyra::fuzz {

namespace {

std::string describe(const std::vector<Violation>& violations) {
  std::ostringstream out;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) out << "; ";
    out << violations[i].invariant << ": " << violations[i].detail;
  }
  return out.str();
}

}  // namespace

FuzzSummary fuzz(const FuzzOptions& options) {
  FuzzSummary summary;
  const auto log = [&](const std::string& line) {
    if (options.log) options.log(line);
  };
  for (std::size_t i = 0; i < options.num_seeds; ++i) {
    const std::uint64_t seed = options.start_seed + i;
    const ScenarioPlan plan = generate_plan(seed);
    RunReport report = run_plan(plan);
    ++summary.seeds_run;
    if (report.ok()) {
      log("seed " + std::to_string(seed) + ": ok (" +
          std::to_string(plan.fault_count()) + " faults, " +
          std::to_string(report.committed_txs) + " txs)");
      continue;
    }
    log("seed " + std::to_string(seed) +
        ": FAIL — " + describe(report.violations));

    SeedResult failure;
    failure.seed = seed;
    failure.report = report;
    if (options.minimize && !report.invalid_plan) {
      failure.minimized_result =
          minimize_plan(plan, options.max_minimize_runs, options.log);
      failure.minimized = true;
      log("seed " + std::to_string(seed) + ": minimized to " +
          std::to_string(failure.minimized_result.plan.fault_count()) +
          " faults in " +
          std::to_string(failure.minimized_result.oracle_runs) + " runs");
    }
    if (!options.artifact_dir.empty()) {
      const ScenarioPlan& repro = failure.minimized
                                      ? failure.minimized_result.plan
                                      : plan;
      const std::vector<Violation>& v =
          failure.minimized ? failure.minimized_result.violations
                            : report.violations;
      failure.artifact_path = write_artifact(options.artifact_dir, repro, v);
      if (!failure.artifact_path.empty()) {
        log("seed " + std::to_string(seed) + ": artifact " +
            failure.artifact_path);
      }
    }
    summary.failures.push_back(std::move(failure));
    if (options.stop_on_failure) break;
  }
  return summary;
}

bool load_plan_file(const std::string& path, ScenarioPlan& plan,
                    std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_plan(buf.str(), plan, error);
}

std::string write_artifact(const std::string& dir, const ScenarioPlan& plan,
                           const std::vector<Violation>& violations) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  const std::string path = dir + "/seed-" + std::to_string(plan.seed) +
                           "-faults-" + std::to_string(plan.fault_count()) +
                           ".fuzzplan";
  std::ofstream out(path);
  if (!out) return "";
  out << serialize_plan(plan);
  for (const Violation& v : violations) {
    out << "# violation at " << v.at / kNsPerMs << "ms — " << v.invariant
        << ": " << v.detail << "\n";
  }
  return out ? path : "";
}

}  // namespace lyra::fuzz
