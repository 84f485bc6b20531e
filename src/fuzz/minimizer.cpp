#include "fuzz/minimizer.hpp"

#include <algorithm>
#include <set>
#include <string>

namespace lyra::fuzz {

namespace {

/// Remap a 7-node plan onto 4 nodes when every fault already names a node
/// below 4 (no id rewriting — rewriting would change which schedule the
/// seed reproduces more than shrinking does).
bool shrink_n(const ScenarioPlan& plan, ScenarioPlan& out) {
  if (plan.n <= 4) return false;
  for (const CrashFault& c : plan.crashes) {
    if (c.node >= 4) return false;
  }
  for (const ByzFault& b : plan.byz) {
    if (b.node >= 4) return false;
  }
  for (const DelayFault& d : plan.delays) {
    if (d.victim != kNoNode && d.victim >= 4) return false;
  }
  out = plan;
  out.n = 4;
  for (PartitionFault& p : out.partitions) p.side_mask &= 0xF;
  return true;
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
                          const char* what) {
    std::vector<Violation> v;
    if (result.oracle_runs >= max_runs) return false;
    if (!oracle(candidate, &v)) return false;
    result.plan = candidate;
    result.violations = std::move(v);
    if (log) {
      log(std::string("kept: ") + what + " (" +
          std::to_string(result.plan.fault_count()) + " faults left)");
    }
    return true;
  };

  bool progress = true;
  while (progress && result.oracle_runs < max_runs) {
    progress = false;

    // 1. Drop whole faults, one at a time (largest lever first).
    for (std::size_t i = 0; i < result.plan.crashes.size();) {
      ScenarioPlan c = result.plan;
      c.crashes.erase(c.crashes.begin() + i);
      if (accept(c, "drop crash")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.partitions.size();) {
      ScenarioPlan c = result.plan;
      c.partitions.erase(c.partitions.begin() + i);
      if (accept(c, "drop partition")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.delays.size();) {
      ScenarioPlan c = result.plan;
      c.delays.erase(c.delays.begin() + i);
      if (accept(c, "drop delay")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.byz.size();) {
      ScenarioPlan c = result.plan;
      c.byz.erase(c.byz.begin() + i);
      if (accept(c, "drop byz")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.fee_spikes.size();) {
      ScenarioPlan c = result.plan;
      c.fee_spikes.erase(c.fee_spikes.begin() + i);
      if (accept(c, "drop fee spike")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.overflows.size();) {
      ScenarioPlan c = result.plan;
      c.overflows.erase(c.overflows.begin() + i);
      if (accept(c, "drop overflow")) progress = true;
      else ++i;
    }
    for (std::size_t i = 0; i < result.plan.flaps.size();) {
      ScenarioPlan c = result.plan;
      c.flaps.erase(c.flaps.begin() + i);
      if (accept(c, "drop flap")) progress = true;
      else ++i;
    }

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
    {
      ScenarioPlan c;
      if (shrink_n(result.plan, c) && accept(c, "n=4")) progress = true;
    }
    while (result.plan.clients_per_node > 8) {
      ScenarioPlan c = result.plan;
      c.clients_per_node = std::max(8u, c.clients_per_node / 2);
      if (accept(c, "halve clients")) progress = true;
      else break;
    }

    // 5. Shorten windows (halve toward their start) and the run tail.
    for (std::size_t i = 0; i < result.plan.partitions.size(); ++i) {
      ScenarioPlan c = result.plan;
      PartitionFault& p = c.partitions[i];
      const TimeNs half = (p.to - p.from) / 2;
      if (half < ms(100)) continue;
      p.to = p.from + half;
      if (accept(c, "halve partition")) progress = true;
    }
    for (std::size_t i = 0; i < result.plan.delays.size(); ++i) {
      ScenarioPlan c = result.plan;
      DelayFault& d = c.delays[i];
      const TimeNs half = (d.to - d.from) / 2;
      if (half < ms(100)) continue;
      d.to = d.from + half;
      if (accept(c, "halve delay")) progress = true;
    }
    for (std::size_t i = 0; i < result.plan.crashes.size(); ++i) {
      ScenarioPlan c = result.plan;
      CrashFault& cr = c.crashes[i];
      const TimeNs half = (cr.restart_at - cr.crash_at) / 2;
      if (half < ms(150)) continue;
      cr.restart_at = cr.crash_at + half;
      if (accept(c, "halve crash window")) progress = true;
    }
    for (std::size_t i = 0; i < result.plan.fee_spikes.size(); ++i) {
      ScenarioPlan c = result.plan;
      FeeSpikeFault& s = c.fee_spikes[i];
      const TimeNs half = (s.to - s.from) / 2;
      if (half < ms(100)) continue;
      s.to = s.from + half;
      if (accept(c, "halve fee spike")) progress = true;
    }
    for (std::size_t i = 0; i < result.plan.flaps.size(); ++i) {
      ScenarioPlan c = result.plan;
      FlapFault& fl = c.flaps[i];
      const TimeNs half = (fl.to - fl.from) / 2;
      if (half < ms(100)) continue;
      fl.to = fl.from + half;
      if (accept(c, "halve flap")) progress = true;
    }
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
