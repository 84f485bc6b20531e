#include "fuzz/minimizer.hpp"

#include <algorithm>
#include <set>
#include <string>

namespace lyra::fuzz {

namespace {

/// The log name of a fault kind: its directive word, spaced ("fee spike").
std::string label(const char* word) {
  std::string name = word;
  std::replace(name.begin(), name.end(), '_', ' ');
  return name;
}

}  // namespace

MinimizeResult minimize_plan(
    const ScenarioPlan& failing, std::size_t max_runs,
    const std::function<void(const std::string&)>& log) {
  MinimizeResult result;
  result.plan = failing;

  // A candidate counts as "still failing" only if it trips one of the
  // invariants the original plan tripped. Accepting *any* violation lets
  // the reproducer drift onto an unrelated bug mid-shrink and the emitted
  // artifact stops witnessing the failure being minimized.
  std::set<std::string> target;
  const auto oracle = [&](const ScenarioPlan& candidate,
                          std::vector<Violation>* out) {
    std::string err;
    if (!validate_plan(candidate, err)) return false;
    ++result.oracle_runs;
    RunReport rep = run_plan(candidate);
    if (out != nullptr) *out = rep.violations;
    if (target.empty()) return !rep.violations.empty();
    for (const Violation& v : rep.violations) {
      if (target.count(v.invariant) != 0) return true;
    }
    return false;
  };

  std::vector<Violation> baseline;
  if (!oracle(failing, &baseline)) {
    // Not actually failing (or invalid): nothing to shrink.
    result.violations = baseline;
    return result;
  }
  result.violations = baseline;
  for (const Violation& v : baseline) target.insert(v.invariant);

  const auto accept = [&](const ScenarioPlan& candidate,
                          const std::string& what) {
    std::vector<Violation> v;
    if (result.oracle_runs >= max_runs) return false;
    if (!oracle(candidate, &v)) return false;
    result.plan = candidate;
    result.violations = std::move(v);
    if (log) {
      log("kept: " + what + " (" +
          std::to_string(result.plan.fault_count()) + " faults left)");
    }
    return true;
  };

  bool progress = true;
  // Halves each fault's [from, to) toward `from`, never below `min_half`.
  const auto halve = [&]<class Fault>(std::vector<Fault> ScenarioPlan::*list,
                                      TimeNs Fault::*from, TimeNs Fault::*to,
                                      TimeNs min_half,
                                      const std::string& what) {
    for (std::size_t i = 0; i < (result.plan.*list).size(); ++i) {
      ScenarioPlan c = result.plan;
      Fault& f = (c.*list)[i];
      const TimeNs half = (f.*to - f.*from) / 2;
      if (half < min_half) continue;
      f.*to = f.*from + half;
      if (accept(c, what)) progress = true;
    }
  };
  const auto halve_window =
      [&]<WindowedFault Fault, class F>(const FaultKind<Fault, F>& kind) {
        halve(kind.list, &Fault::from, &Fault::to, ms(100),
              "halve " + label(kind.word));
      };

  while (progress && result.oracle_runs < max_runs) {
    progress = false;

    // 1. Drop whole faults, one at a time (largest lever first).
    for_each_fault_kind([&](const auto& kind) {
      const std::string what = "drop " + label(kind.word);
      for (std::size_t i = 0; i < (result.plan.*kind.list).size();) {
        ScenarioPlan c = result.plan;
        auto& list = c.*kind.list;
        list.erase(list.begin() + i);
        if (accept(c, what)) progress = true;
        else ++i;
      }
    });

    // 2. Drop disk damage inside surviving crash windows.
    for (std::size_t i = 0; i < result.plan.crashes.size(); ++i) {
      if (result.plan.crashes[i].wipe_disk) {
        ScenarioPlan c = result.plan;
        c.crashes[i].wipe_disk = false;
        if (accept(c, "drop wipe")) progress = true;
      }
      if (result.plan.crashes[i].corrupt_wal) {
        ScenarioPlan c = result.plan;
        c.crashes[i].corrupt_wal = false;
        if (accept(c, "drop corrupt")) progress = true;
      }
    }

    // 3. Turn off configuration axes.
    if (result.plan.state_sync) {
      ScenarioPlan c = result.plan;
      c.state_sync = false;  // rejected by validate if a wipe needs it
      if (accept(c, "state_sync off")) progress = true;
    }
    if (result.plan.resubmit_timeout > 0) {
      ScenarioPlan c = result.plan;
      c.resubmit_timeout = 0;
      if (accept(c, "resubmit off")) progress = true;
    }

    // 4. Shrink the cluster and the load.
    // A 7-node plan becomes a 4-node one with the same node ids: a fault
    // naming a node >= 4 fails validation (rewriting ids would change
    // which schedule the seed reproduces more than shrinking does).
    if (result.plan.n > 4) {
      ScenarioPlan c = result.plan;
      c.n = 4;
      for (PartitionFault& p : c.partitions) p.side_mask &= 0xF;
      if (accept(c, "n=4")) progress = true;
    }
    while (result.plan.clients_per_node > 8) {
      ScenarioPlan c = result.plan;
      c.clients_per_node = std::max(8u, c.clients_per_node / 2);
      if (accept(c, "halve clients")) progress = true;
      else break;
    }

    // 5. Shorten windows (halve toward their start) and the run tail.
    halve_window(kPartitionFaults);
    halve_window(kDelayFaults);
    halve(kCrashFaults.list, &CrashFault::crash_at, &CrashFault::restart_at,
          ms(150), "halve crash window");
    halve_window(kFeeSpikeFaults);
    halve_window(kFlapFaults);
    for (std::size_t i = 0; i < result.plan.overflows.size(); ++i) {
      ScenarioPlan c = result.plan;
      OverflowFault& o = c.overflows[i];
      if (o.txs < 16) continue;
      o.txs /= 2;
      if (accept(c, "halve overflow")) progress = true;
    }
    while (result.plan.duration > ms(2500)) {
      ScenarioPlan c = result.plan;
      c.duration -= ms(500);
      if (accept(c, "shorten run")) progress = true;
      else break;
    }
  }
  return result;
}

}  // namespace lyra::fuzz
