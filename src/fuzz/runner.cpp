#include "fuzz/runner.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "fuzz/fuzz_adversary.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"

namespace lyra::fuzz {

namespace {

TimeNs last_fault_end(const ScenarioPlan& plan) {
  TimeNs end = 0;
  for (const CrashFault& c : plan.crashes) end = std::max(end, c.restart_at);
  for (const PartitionFault& p : plan.partitions) end = std::max(end, p.to);
  for (const DelayFault& d : plan.delays) end = std::max(end, d.to);
  for (const FeeSpikeFault& s : plan.fee_spikes) end = std::max(end, s.to);
  for (const OverflowFault& o : plan.overflows) end = std::max(end, o.at);
  for (const FlapFault& fl : plan.flaps) end = std::max(end, fl.to);
  return end;  // 0 when the plan only has whole-run (Byzantine) faults
}

/// The plan's deployment as an experiment: unlimited bandwidth, and a
/// measurement window from time 0 so the result counts every commit, also
/// of overflow bursts injected before the clients start (faults begin at
/// kFaultWarmup, 800 ms; clients at 900 ms). Open-loop plans get a fixed
/// small retry ladder (the plan only chooses capacity and rate, and
/// kOpenLoopDrain was sized for this ladder, see fault_program.hpp), and
/// arrivals stop at the head of the quiet tail so every transaction can
/// reach a terminal state before the end-of-run resolution sweep.
harness::RunConfig make_run_config(const ScenarioPlan& plan) {
  harness::RunConfig c;
  c.protocol = plan.protocol;
  c.node.n = plan.n;
  c.node.batch_size = plan.batch_size;
  c.node.mempool_capacity = plan.mempool_capacity;
  c.clients_per_node = plan.clients_per_node;
  c.duration = plan.duration;
  c.measure_from = 0;
  c.seed = plan.seed;
  c.bandwidth_bytes_per_sec = 0;
  c.byz = plan.byz;
  c.crashes = plan.crashes;
  c.state_sync = plan.state_sync;
  workload::OpenLoopOptions& a = c.workload.arrivals;
  a.arrival_rate = plan.arrival_rate;
  a.accounts = 1000;
  a.max_retries = kOpenLoopRetries;
  a.retry_backoff = kOpenLoopBackoff;
  a.retry_backoff_cap = kOpenLoopBackoffCap;
  a.stop_at = plan.duration - plan.required_tail();
  return c;
}

/// Schedules the open-loop workload faults as harness-level events that
/// mutate pools and node mempools between handler runs. Open-loop plans
/// have no crash faults, so every node is alive whenever a flap fires.
template <typename Cluster>
void schedule_workload_faults(sim::Simulation& sim, Cluster& cluster,
                              const ScenarioPlan& plan) {
  for (const FeeSpikeFault& s : plan.fee_spikes) {
    sim.schedule_at(s.from, [&cluster, s] {
      for (const auto& pool : cluster.open_pools()) {
        pool->set_fee_multiplier(static_cast<double>(s.mult));
      }
    });
    sim.schedule_at(s.to, [&cluster] {
      for (const auto& pool : cluster.open_pools()) {
        pool->set_fee_multiplier(1.0);
      }
    });
  }
  for (const OverflowFault& o : plan.overflows) {
    sim.schedule_at(o.at, [&cluster, o] {
      for (const auto& pool : cluster.open_pools()) pool->inject_burst(o.txs);
    });
  }
  for (const FlapFault& fl : plan.flaps) {
    sim.schedule_at(fl.from, [&cluster, &plan, fl] {
      for (NodeId i = 0; i < plan.n; ++i) {
        cluster.node(i).set_mempool_capacity(fl.capacity);
      }
    });
    sim.schedule_at(fl.to, [&cluster, &plan] {
      for (NodeId i = 0; i < plan.n; ++i) {
        cluster.node(i).set_mempool_capacity(plan.mempool_capacity);
      }
    });
  }
}

std::vector<bool> byz_mask(const ScenarioPlan& plan) {
  std::vector<bool> mask(plan.n, false);
  for (const ByzFault& b : plan.byz) mask[b.node] = true;
  return mask;
}

/// Drop exact repeats: a safety violation persists once tripped, so every
/// later sweep would re-report it verbatim.
void dedup_violations(std::vector<Violation>& v) {
  std::set<std::pair<std::string, std::string>> seen;
  std::vector<Violation> out;
  for (Violation& viol : v) {
    if (!seen.insert({viol.invariant, viol.detail}).second) continue;
    out.push_back(std::move(viol));
  }
  v = std::move(out);
}

void bind(CheckContext& ctx, harness::LyraCluster& cluster) {
  ctx.lyra = &cluster;
}
void bind(CheckContext& ctx, harness::PompeCluster& cluster) {
  ctx.pompe = &cluster;
}

/// Runs the plan through the experiment driver, which places the pools
/// (none on silent slots) and schedules the crashes. The hooks add only
/// what fuzzing owns: the adversary, closed-loop resubmission, workload
/// faults, the ledger probe 1 ms after the last fault, in-run and final
/// invariant sweeps, and the end-of-run ledger and adversary reads.
/// Scheduling order fixes event ids, so it must not change.
template <class Cluster>
void run_hooked(const ScenarioPlan& plan, const RunOptions& opts,
                RunReport& rep) {
  FuzzAdversary adversary(plan.n, plan.partitions, plan.delays);
  CheckContext ctx;
  ctx.plan = &plan;
  ctx.is_byz = byz_mask(plan);
  const InvariantRegistry reg = InvariantRegistry::standard();
  bool tripped = false;  // an in-run sweep found a violation

  harness::RunHooks<Cluster> hooks;
  hooks.before_start = [&](Cluster& cluster) {
    bind(ctx, cluster);
    if (!plan.partitions.empty() || !plan.delays.empty()) {
      cluster.network().set_adversary(&adversary);
    }
    if (plan.resubmit_timeout > 0) {
      for (const auto& pool : cluster.pools()) {
        pool->set_resubmit_timeout(plan.resubmit_timeout);
      }
    }
    sim::Simulation& sim = cluster.simulation();
    schedule_workload_faults(sim, cluster, plan);
    const TimeNs fault_end = last_fault_end(plan);
    if (fault_end > 0 && fault_end < plan.duration) {
      sim.schedule_at(fault_end + ms(1), [&ctx] {
        ctx.ledger_at_last_fault = progress_ledger_length(ctx);
      });
    }
    // In-run sweeps fire as harness-level events between handler runs, so
    // reading cross-node state is safe.
    for (TimeNs t = opts.check_interval; t < plan.duration;
         t += opts.check_interval) {
      sim.schedule_at(t, [&ctx, &reg, &tripped, &rep, at = t] {
        if (tripped) return;  // first witness is enough; keep the run cheap
        ctx.now = at;
        std::vector<Violation> v = reg.run(ctx);
        if (v.empty()) return;
        tripped = true;
        rep.violations.insert(rep.violations.end(), v.begin(), v.end());
      });
    }
  };
  hooks.after_run = [&](Cluster& cluster) {
    ctx.final_phase = true;
    ctx.now = cluster.simulation().now();
    std::vector<Violation> final_v = reg.run(ctx);
    rep.violations.insert(rep.violations.end(), final_v.begin(),
                          final_v.end());
    dedup_violations(rep.violations);
    rep.min_ledger = cluster.min_ledger_length();
    rep.max_ledger = progress_ledger_length(ctx);
    rep.partitioned_messages = adversary.partitioned_messages();
    rep.delayed_messages = adversary.delayed_messages();
  };
  rep.run = harness::run_experiment(make_run_config(plan), hooks);
}

}  // namespace

RunReport run_plan(const ScenarioPlan& plan, const RunOptions& opts) {
  RunReport rep;
  rep.plan = plan;
  if (!validate_plan(plan, rep.error)) {
    rep.invalid_plan = true;
    return rep;
  }
  if (plan.protocol == Protocol::kLyra) {
    run_hooked<harness::LyraCluster>(plan, opts, rep);
  } else {
    run_hooked<harness::PompeCluster>(plan, opts, rep);
  }
  return rep;
}

}  // namespace lyra::fuzz
