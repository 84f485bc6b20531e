// Schedule-fuzzing subsystem tests: grammar round-trips, plan validation,
// corpus replay, and the mutation self-check that proves the invariant
// registry can catch known-fixed bugs (docs/FUZZING.md).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <set>

#include "fuzz/fault_program.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/invariants.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/runner.hpp"

namespace lyra::fuzz {
namespace {

#ifndef LYRA_FUZZ_CORPUS_DIR
#define LYRA_FUZZ_CORPUS_DIR ""
#endif

/// RAII guard for the mutation env hook so a failing ASSERT cannot leak
/// the mutation into later tests.
class MutationGuard {
 public:
  explicit MutationGuard(const char* name) {
    setenv("LYRA_FUZZ_MUTATION", name, 1);
  }
  ~MutationGuard() { unsetenv("LYRA_FUZZ_MUTATION"); }
};

std::uint32_t concurrent_down(const ScenarioPlan& plan) {
  std::uint32_t worst = 0;
  for (const CrashFault& a : plan.crashes) {
    std::uint32_t down = 0;
    for (const CrashFault& b : plan.crashes) {
      if (b.crash_at <= a.crash_at && a.crash_at < b.restart_at) ++down;
    }
    worst = std::max(worst, down);
  }
  return worst;
}

bool has_invariant(const std::vector<Violation>& violations,
                   const std::string& name) {
  for (const Violation& v : violations) {
    if (v.invariant == name) return true;
  }
  return false;
}

TEST(FaultProgram, GeneratorIsDeterministic) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    EXPECT_EQ(serialize_plan(generate_plan(seed)),
              serialize_plan(generate_plan(seed)))
        << "seed " << seed;
  }
}

TEST(FaultProgram, GeneratedPlansValidateAndRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ScenarioPlan plan = generate_plan(seed);
    std::string error;
    EXPECT_TRUE(validate_plan(plan, error)) << "seed " << seed << ": "
                                            << error;
    const std::string text = serialize_plan(plan);
    ScenarioPlan parsed;
    ASSERT_TRUE(parse_plan(text, parsed, error)) << "seed " << seed << ": "
                                                 << error;
    EXPECT_EQ(text, serialize_plan(parsed)) << "seed " << seed;
  }
}

TEST(FaultProgram, GeneratedPlansHonorBudgetAndTail) {
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    const ScenarioPlan plan = generate_plan(seed);
    EXPECT_LE(concurrent_down(plan) + plan.byz.size(), plan.f())
        << "seed " << seed;
    const TimeNs fault_deadline = plan.duration - plan.required_tail();
    for (const CrashFault& c : plan.crashes) {
      EXPECT_LE(c.restart_at, fault_deadline) << "seed " << seed;
    }
    for (const PartitionFault& p : plan.partitions) {
      EXPECT_LE(p.to, fault_deadline) << "seed " << seed;
    }
    for (const DelayFault& d : plan.delays) {
      EXPECT_LE(d.to, fault_deadline) << "seed " << seed;
    }
    for (const FeeSpikeFault& s : plan.fee_spikes) {
      EXPECT_LE(s.to, fault_deadline) << "seed " << seed;
    }
    for (const OverflowFault& o : plan.overflows) {
      EXPECT_LE(o.at, fault_deadline) << "seed " << seed;
    }
    for (const FlapFault& fl : plan.flaps) {
      EXPECT_LE(fl.to, fault_deadline) << "seed " << seed;
      EXPECT_LE(fl.capacity, plan.mempool_capacity) << "seed " << seed;
    }
    if (plan.open_loop()) {
      // Open-loop plans give up crashes and closed-loop resubmission and
      // buy the extra drain tail instead.
      EXPECT_TRUE(plan.crashes.empty()) << "seed " << seed;
      EXPECT_EQ(plan.resubmit_timeout, 0) << "seed " << seed;
      EXPECT_GE(plan.required_tail(), kFaultTail + kOpenLoopDrain)
          << "seed " << seed;
    } else {
      EXPECT_TRUE(plan.fee_spikes.empty() && plan.overflows.empty() &&
                  plan.flaps.empty())
          << "seed " << seed;
    }
  }
}

TEST(FaultProgram, GeneratorEmitsOpenLoopPlans) {
  // The open-loop draw is probabilistic (p = 0.35); over 128 seeds both
  // modes must appear or the workload grammar is dead weight.
  std::size_t open = 0, with_workload_faults = 0;
  for (std::uint64_t seed = 1; seed <= 128; ++seed) {
    const ScenarioPlan plan = generate_plan(seed);
    if (!plan.open_loop()) continue;
    ++open;
    EXPECT_GE(plan.arrival_rate, 1u);
    EXPECT_LE(plan.arrival_rate, 2000u);
    if (plan.fault_count() >
        plan.partitions.size() + plan.delays.size() + plan.byz.size()) {
      ++with_workload_faults;
    }
  }
  EXPECT_GT(open, 16u);
  EXPECT_LT(open, 112u);
  EXPECT_GT(with_workload_faults, 0u);
}

TEST(FaultProgram, ParseRejectsMalformedInput) {
  ScenarioPlan plan;
  std::string error;
  EXPECT_FALSE(parse_plan("", plan, error));
  EXPECT_FALSE(parse_plan("not-a-plan\n", plan, error));
  const std::string base = "lyra-fuzz-plan v1\nseed 1\nduration_ms 5000\n";
  EXPECT_FALSE(parse_plan(base + "frobnicate 3\n", plan, error));
  EXPECT_FALSE(parse_plan(base + "crash node\n", plan, error));
  EXPECT_FALSE(parse_plan(base + "byz node=1 kind=confused\n", plan, error));
  EXPECT_FALSE(parse_plan(base + "mempool lots\n", plan, error));
  EXPECT_FALSE(parse_plan(base + "fee_spike from_ms=1000\n", plan, error));
  EXPECT_FALSE(
      parse_plan(base + "overflow at_ms=1000 txs=-3\n", plan, error));
  EXPECT_FALSE(parse_plan(base + "flap from_ms=1000 to_ms=1200 size=4\n",
                          plan, error));
  // Workload faults without an open-loop mempool fail validation.
  EXPECT_FALSE(parse_plan(
      base + "overflow at_ms=1000 txs=64\n", plan, error));
  EXPECT_TRUE(parse_plan(base + "mempool 64\narrival_rate 200\n" +
                             "overflow at_ms=1000 txs=64\n",
                         plan, error))
      << error;
  // Comments before the header are fine (annotated corpus files).
  EXPECT_TRUE(parse_plan("# hello\n\n" + base, plan, error)) << error;
}

TEST(FaultProgram, LegacyThreadsLineIsAcceptedAndIgnored) {
  // Artifacts written while plans carried an execution-thread axis still
  // parse, and re-serialize without it.
  const std::string legacy =
      "lyra-fuzz-plan v1\nseed 9\nprotocol lyra\nn 4\nclients 16\n"
      "batch 16\nduration_ms 5000\nthreads 4\nstate_sync 0\n"
      "resubmit_ms 0\n";
  ScenarioPlan plan;
  std::string error;
  ASSERT_TRUE(parse_plan(legacy, plan, error)) << error;
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.duration, ms(5000));
  const std::string out = serialize_plan(plan);
  EXPECT_EQ(out.find("threads"), std::string::npos) << out;
  ScenarioPlan reparsed;
  ASSERT_TRUE(parse_plan(out, reparsed, error)) << error;
  EXPECT_EQ(out, serialize_plan(reparsed));
  // The value must still be a number: typos surface as parse errors.
  EXPECT_FALSE(parse_plan(legacy + "threads many\n", plan, error));
}

TEST(FaultProgram, GeneratorOutputIsPinned) {
  // Seeds expand to the same plans they always have (minus the retired
  // `threads` line), so recorded nightly seed ranges and the mutation
  // self-check's seed budget keep their meaning. Covers an open-loop plan,
  // a crash + Byzantine plan, and a Pompe plan.
  const std::pair<std::uint64_t, const char*> pinned[] = {
      {1,
       "lyra-fuzz-plan v1\nseed 1\nprotocol lyra\nn 4\nclients 48\n"
       "batch 16\nduration_ms 7500\nstate_sync 1\nresubmit_ms 0\n"
       "mempool 128\narrival_rate 250\n"
       "delay from_ms=1270 to_ms=1470 extra_ms=50 victim=all\n"
       "delay from_ms=2097 to_ms=2447 extra_ms=300 victim=0\n"
       "fee_spike from_ms=2866 to_ms=3166 mult=8\n"
       "overflow at_ms=3062 txs=256\n"
       "overflow at_ms=3242 txs=384\n"},
      {2,
       "lyra-fuzz-plan v1\nseed 2\nprotocol lyra\nn 7\nclients 40\n"
       "batch 8\nduration_ms 8400\nstate_sync 1\nresubmit_ms 1200\n"
       "crash node=3 crash_ms=1091 restart_ms=1891 wipe=1 corrupt=0\n"
       "crash node=5 crash_ms=2058 restart_ms=2408 wipe=0 corrupt=0\n"
       "partition from_ms=2421 to_ms=2921 mask=69\n"
       "delay from_ms=1402 to_ms=2052 extra_ms=200 victim=2\n"
       "delay from_ms=1312 to_ms=1812 extra_ms=50 victim=all\n"
       "byz node=0 kind=silent\n"},
      {4,
       "lyra-fuzz-plan v1\nseed 4\nprotocol pompe\nn 7\nclients 40\n"
       "batch 8\nduration_ms 5250\nstate_sync 0\nresubmit_ms 0\n"
       "partition from_ms=2389 to_ms=2589 mask=29\n"
       "partition from_ms=809 to_ms=1009 mask=108\n"},
  };
  for (const auto& [seed, text] : pinned) {
    EXPECT_EQ(serialize_plan(generate_plan(seed)), text) << "seed " << seed;
  }
}

TEST(FaultProgram, ValidateRejectsStructurallyBrokenPlans) {
  const auto base = [] {
    ScenarioPlan p;
    p.n = 4;
    p.duration = ms(6000);
    return p;
  };
  std::string error;

  ScenarioPlan p = base();
  p.n = 3;
  EXPECT_FALSE(validate_plan(p, error));

  p = base();
  p.crashes.push_back({0, ms(1000), ms(1500), false, false});
  p.crashes.push_back({0, ms(2000), ms(2500), false, false});
  EXPECT_FALSE(validate_plan(p, error)) << "two windows on one node";

  p = base();
  p.crashes.push_back({0, ms(1000), ms(1500), true, false});
  EXPECT_FALSE(validate_plan(p, error)) << "wipe without state_sync";

  p = base();
  p.crashes.push_back({0, ms(1000), ms(5000), false, false});
  EXPECT_FALSE(validate_plan(p, error)) << "restart inside the quiet tail";

  p = base();
  p.crashes.push_back({0, ms(1000), ms(1500), false, false});
  p.byz.push_back({1, ByzKind::kSilent});
  EXPECT_FALSE(validate_plan(p, error)) << "down + byz exceeds f";

  p = base();
  p.protocol = Protocol::kPompe;
  p.crashes.push_back({0, ms(1000), ms(1500), false, false});
  EXPECT_FALSE(validate_plan(p, error)) << "pompe with crash fault";

  p = base();
  p.partitions.push_back({ms(1000), ms(1500), 1u << 5});
  EXPECT_FALSE(validate_plan(p, error)) << "mask names nodes >= n";

  p = base();
  p.arrival_rate = 200;
  EXPECT_FALSE(validate_plan(p, error)) << "arrival_rate without mempool";

  p = base();
  p.mempool_capacity = 64;
  EXPECT_FALSE(validate_plan(p, error)) << "open loop without arrival_rate";

  p = base();
  p.mempool_capacity = 64;
  p.arrival_rate = 200;
  p.crashes.push_back({0, ms(1000), ms(1200), false, false});
  EXPECT_FALSE(validate_plan(p, error)) << "open loop with a crash";

  p = base();
  p.mempool_capacity = 64;
  p.arrival_rate = 200;
  p.resubmit_timeout = ms(800);
  EXPECT_FALSE(validate_plan(p, error)) << "open loop with resubmission";

  p = base();
  p.mempool_capacity = 64;
  p.arrival_rate = 200;
  p.flaps.push_back({ms(1000), ms(1200), 128});
  EXPECT_FALSE(validate_plan(p, error)) << "flap above the plan capacity";

  p = base();
  p.fee_spikes.push_back({ms(1000), ms(1200), 4});
  EXPECT_FALSE(validate_plan(p, error)) << "workload fault on a closed plan";

  p = base();
  p.duration = ms(8000);
  p.mempool_capacity = 64;
  p.arrival_rate = 200;
  p.overflows.push_back({ms(1000), 128});
  p.fee_spikes.push_back({ms(1000), ms(1400), 4});
  p.flaps.push_back({ms(1200), ms(1600), 16});
  EXPECT_TRUE(validate_plan(p, error)) << error;
}

TEST(Invariants, StandardRegistryNamesTheDocumentedChecks) {
  const InvariantRegistry registry = InvariantRegistry::standard();
  std::set<std::string> names;
  for (const auto& e : registry.entries()) names.insert(e.name);
  for (const char* expected :
       {"prefix-agreement", "ledger-order", "no-dup-commit",
        "per-sender-order", "lambda-fairness", "resync-gate-quorum",
        "mempool-no-double-commit", "recovery-convergence",
        "post-fault-progress", "open-loop-resolution",
        "client-resubmit-lag"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
}

TEST(Fuzzer, ArtifactRoundTripsThroughLoad) {
  const ScenarioPlan plan = generate_plan(7);
  const std::string dir =
      testing::TempDir() + "/lyra-fuzz-artifact-roundtrip";
  const std::string path =
      write_artifact(dir, plan, {{"prefix-agreement", "witness text", ms(1)}});
  ASSERT_FALSE(path.empty());
  ScenarioPlan loaded;
  std::string error;
  ASSERT_TRUE(load_plan_file(path, loaded, error)) << error;
  EXPECT_EQ(serialize_plan(plan), serialize_plan(loaded));
  std::filesystem::remove_all(dir);
}

TEST(CorpusReplay, EveryCheckedInPlanRunsClean) {
  const std::string dir = LYRA_FUZZ_CORPUS_DIR;
  ASSERT_FALSE(dir.empty());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".fuzzplan") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& file : files) {
    ScenarioPlan plan;
    std::string error;
    ASSERT_TRUE(load_plan_file(file, plan, error)) << file << ": " << error;
    const RunReport report = run_plan(plan);
    EXPECT_TRUE(report.ok()) << file << ": "
                             << (report.violations.empty()
                                     ? report.error
                                     : report.violations[0].invariant + ": " +
                                           report.violations[0].detail);
  }
}

TEST(FullStackPlans, ResubmitTimersSurviveCrashTeardown) {
  // With client resubmission on, every committed batch cancels and re-arms
  // resubmit timers, and the crash tears down a node's whole timer set
  // mid-flight while deliveries to it are still queued. A mis-cancelled
  // timer trips client-resubmit-lag or post-fault-progress; a leaked one
  // fires into a destroyed process. A second run must reproduce the first
  // exactly.
  ScenarioPlan plan;
  plan.seed = 5;
  plan.n = 4;
  plan.clients_per_node = 24;
  plan.batch_size = 16;
  plan.resubmit_timeout = ms(900);
  plan.duration = ms(3000) + plan.required_tail();
  plan.crashes.push_back({2, ms(700), ms(1400), false, false});
  plan.delays.push_back({ms(1800), ms(2300), ms(120), 1u << 1});
  std::string error;
  ASSERT_TRUE(validate_plan(plan, error)) << error;
  const RunReport report = run_plan(plan);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty()
              ? report.error
              : report.violations[0].invariant + ": " +
                    report.violations[0].detail);
  EXPECT_GT(report.committed_txs, 0u);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_GT(report.resubmissions, 0u);
  const RunReport again = run_plan(plan);
  EXPECT_EQ(again.committed_txs, report.committed_txs);
  EXPECT_EQ(again.resubmissions, report.resubmissions);
  EXPECT_EQ(again.min_ledger, report.min_ledger);
  EXPECT_EQ(again.max_ledger, report.max_ledger);
}

TEST(OpenLoopPlans, WorkloadFaultsRunCleanAndResolve) {
  // Full-stack open-loop plan with all three workload faults. The
  // end-of-run sweep checks open-loop-resolution and the double-commit
  // invariant against the decoded ledgers.
  ScenarioPlan plan;
  plan.seed = 11;
  plan.n = 4;
  plan.batch_size = 16;
  plan.mempool_capacity = 32;
  plan.arrival_rate = 300;
  plan.duration = ms(2500) + plan.required_tail();
  plan.fee_spikes.push_back({ms(1200), ms(1600), 8});
  plan.overflows.push_back({ms(1400), 96});
  plan.flaps.push_back({ms(1800), ms(2200), 4});
  std::string error;
  ASSERT_TRUE(validate_plan(plan, error)) << error;
  const RunReport report = run_plan(plan);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty()
              ? report.error
              : report.violations[0].invariant + ": " +
                    report.violations[0].detail);
  EXPECT_GT(report.committed_txs, 0u);
  EXPECT_GT(report.offered_txs, report.committed_txs);
  // A 96-tx burst into a 32-slot mempool must produce backpressure.
  EXPECT_GT(report.backpressure_rejects, 0u);
}

TEST(OpenLoopPlans, PompeOpenLoopResolves) {
  ScenarioPlan plan;
  plan.seed = 3;
  plan.protocol = Protocol::kPompe;
  plan.n = 4;
  plan.batch_size = 16;
  plan.mempool_capacity = 64;
  plan.arrival_rate = 200;
  plan.duration = ms(2000) + plan.required_tail();
  plan.overflows.push_back({ms(1300), 128});
  std::string error;
  ASSERT_TRUE(validate_plan(plan, error)) << error;
  const RunReport report = run_plan(plan);
  EXPECT_TRUE(report.ok())
      << (report.violations.empty()
              ? report.error
              : report.violations[0].invariant + ": " +
                    report.violations[0].detail);
  EXPECT_GT(report.committed_txs, 0u);
}

// The self-check behind the fuzzer's reason to exist: re-introduce a fixed
// bug through its hidden mutation hook and prove an invariant catches it,
// the minimizer keeps the witness small, and the clean build replays the
// same schedule without tripping anything.

ScenarioPlan resync_mutation_plan() {
  ScenarioPlan plan;
  plan.seed = 1;
  plan.n = 4;
  plan.clients_per_node = 8;
  plan.batch_size = 16;
  plan.duration = ms(3700);
  plan.crashes.push_back({0, ms(854), ms(1029), false, false});
  return plan;
}

TEST(MutationCatch, ResyncSelfReplyCounting) {
  const ScenarioPlan plan = resync_mutation_plan();
  {
    MutationGuard guard("resync-self-reply");
    const RunReport report = run_plan(plan);
    ASSERT_TRUE(has_invariant(report.violations, "resync-gate-quorum"))
        << "mutation not caught";
    const MinimizeResult min = minimize_plan(plan, /*max_runs=*/40, nullptr);
    EXPECT_LE(min.plan.fault_count(), 3u);
    EXPECT_TRUE(has_invariant(min.violations, "resync-gate-quorum"));
    // Deterministic replay: the shrunk plan reproduces bit-identically.
    const RunReport again = run_plan(min.plan);
    ASSERT_FALSE(again.violations.empty());
    EXPECT_EQ(again.violations[0].detail, min.violations[0].detail);
  }
  EXPECT_TRUE(run_plan(plan).ok()) << "clean build trips on the same plan";
}

TEST(MutationCatch, ClientResubmitFixedPeriod) {
  ScenarioPlan plan;
  plan.seed = 1;
  plan.n = 4;
  plan.clients_per_node = 48;
  plan.batch_size = 16;
  plan.duration = ms(9200);
  plan.resubmit_timeout = ms(1600);
  // The fixed-period mutation only shows up as lag when an overdue wave's
  // phase differs from the timer's: the very first wave (t=900ms) arms the
  // timer, so its deadlines coincide with the fixed firings forever and its
  // lag is exactly zero no matter how long its acks are delayed. The window
  // therefore starts *after* the first waves ack, so the closed loop has
  // already staggered later submissions off the 1600ms cadence before the
  // delay (longer than the timeout) makes them overdue. The re-aiming timer
  // retries each wave at its exact deadline; the mutated one services them
  // up to a full period late. (An earlier version relied on sub-timeout
  // delays compounding through the duplicate-notify width-doubling bug;
  // with that fixed, the run was too healthy to make any wave overdue.)
  plan.delays.push_back({ms(1600), ms(2900), ms(4000), 1});
  {
    MutationGuard guard("client-resubmit-fixed-period");
    const RunReport report = run_plan(plan);
    ASSERT_TRUE(has_invariant(report.violations, "client-resubmit-lag"))
        << "mutation not caught";
  }
  EXPECT_TRUE(run_plan(plan).ok()) << "clean build trips on the same plan";
}

}  // namespace
}  // namespace lyra::fuzz
