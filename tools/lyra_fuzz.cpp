// Schedule-fuzzing CLI (docs/FUZZING.md).
//
//   lyra_fuzz --seeds 50 --seed 1            # fuzz seeds 1..50
//   lyra_fuzz --replay path/to/seed.fuzzplan # replay one artifact
//   lyra_fuzz --corpus tests/fuzz/corpus     # replay a corpus directory
//   lyra_fuzz --mutation resync-self-reply --seeds 200 --stop-on-failure
//
// Exit status: 0 = every run clean, 1 = invariant violation(s), 2 = usage
// or IO error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: lyra_fuzz [--seeds N] [--seed S]\n"
               "                 [--no-minimize] [--minimize-runs N]\n"
               "                 [--artifact-dir DIR] [--stop-on-failure]\n"
               "                 [--mutation NAME] [--quiet]\n"
               "                 [--replay FILE]... [--corpus DIR]\n"
               "                 [--print-plan SEED]\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lyra;

  fuzz::FuzzOptions options;
  options.num_seeds = 20;
  std::vector<std::string> replay_files;
  std::string corpus_dir;
  bool quiet = false;
  bool minimize_replays = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lyra_fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    if (arg == "--seeds") {
      if (!parse_u64(next(), v)) { usage(); return 2; }
      options.num_seeds = static_cast<std::size_t>(v);
    } else if (arg == "--seed") {
      if (!parse_u64(next(), v)) { usage(); return 2; }
      options.start_seed = v;
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--minimize") {  // also applies to --replay runs
      minimize_replays = true;
    } else if (arg == "--minimize-runs") {
      if (!parse_u64(next(), v)) { usage(); return 2; }
      options.max_minimize_runs = static_cast<std::size_t>(v);
    } else if (arg == "--artifact-dir") {
      options.artifact_dir = next();
    } else if (arg == "--stop-on-failure") {
      options.stop_on_failure = true;
    } else if (arg == "--mutation") {
      // Convenience for the mutation self-check: equivalent to exporting
      // LYRA_FUZZ_MUTATION before launching.
      setenv("LYRA_FUZZ_MUTATION", next(), 1);
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--print-plan") {
      // Expand a seed to its plan without running it — the way corpus
      // entries are produced (see docs/FUZZING.md).
      if (!parse_u64(next(), v)) { usage(); return 2; }
      std::printf("%s", fuzz::serialize_plan(fuzz::generate_plan(v)).c_str());
      return 0;
    } else if (arg == "--replay") {
      replay_files.push_back(next());
    } else if (arg == "--corpus") {
      corpus_dir = next();
    } else {
      std::fprintf(stderr, "lyra_fuzz: unknown flag %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (!quiet) {
    options.log = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
    };
  }

  if (!corpus_dir.empty()) {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(corpus_dir, ec)) {
      if (entry.path().extension() != ".fuzzplan") continue;
      replay_files.push_back(entry.path().string());
    }
    if (ec) {
      std::fprintf(stderr, "lyra_fuzz: cannot read corpus dir %s: %s\n",
                   corpus_dir.c_str(), ec.message().c_str());
      return 2;
    }
    if (replay_files.empty()) {
      std::fprintf(stderr, "lyra_fuzz: no .fuzzplan files in %s\n",
                   corpus_dir.c_str());
      return 2;
    }
    std::sort(replay_files.begin(), replay_files.end());
  }

  bool any_violation = false;

  if (!replay_files.empty()) {
    for (const std::string& path : replay_files) {
      fuzz::ScenarioPlan plan;
      std::string error;
      if (!fuzz::load_plan_file(path, plan, error)) {
        std::fprintf(stderr, "lyra_fuzz: %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
      }
      fuzz::RunReport report = fuzz::run_plan(plan);
      if (report.ok()) {
        if (!quiet) {
          std::printf("%s: ok (%llu txs, ledger %zu)\n", path.c_str(),
                      static_cast<unsigned long long>(report.committed_txs),
                      report.max_ledger);
        }
        continue;
      }
      any_violation = true;
      for (const fuzz::Violation& v : report.violations) {
        std::printf("%s: FAIL %s: %s\n", path.c_str(), v.invariant.c_str(),
                    v.detail.c_str());
      }
      if (minimize_replays) {
        fuzz::MinimizeResult min =
            fuzz::minimize_plan(plan, options.max_minimize_runs, options.log);
        std::printf("minimized to %zu faults:\n%s", min.plan.fault_count(),
                    fuzz::serialize_plan(min.plan).c_str());
        if (!options.artifact_dir.empty()) {
          fuzz::write_artifact(options.artifact_dir, min.plan,
                               min.violations);
        }
      }
    }
    return any_violation ? 1 : 0;
  }

  const fuzz::FuzzSummary summary = fuzz::fuzz(options);
  std::printf("fuzz: %zu seeds, %zu failure(s)\n", summary.seeds_run,
              summary.failures.size());
  for (const fuzz::SeedResult& f : summary.failures) {
    const fuzz::ScenarioPlan& repro =
        f.minimized ? f.minimized_result.plan : f.report.plan;
    const auto& violations =
        f.minimized ? f.minimized_result.violations : f.report.violations;
    std::printf("--- seed %llu (%zu faults%s)\n",
                static_cast<unsigned long long>(f.seed),
                repro.fault_count(), f.minimized ? ", minimized" : "");
    for (const fuzz::Violation& v : violations) {
      std::printf("  %s: %s\n", v.invariant.c_str(), v.detail.c_str());
    }
    std::printf("%s", fuzz::serialize_plan(repro).c_str());
  }
  return summary.ok() ? 0 : 1;
}
