#include "fuzz/runner.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "attacks/sandwich.hpp"
#include "fuzz/fuzz_adversary.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "workload/open_loop.hpp"

namespace lyra::fuzz {

namespace {

constexpr TimeNs kClientStart = ms(900);

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

/// Workload knobs for open-loop plans. Fixed small retry ladder: the plan
/// only chooses capacity and rate, and kOpenLoopDrain was sized for this
/// ladder (see fault_program.hpp).
workload::OpenLoopOptions make_open_loop_options(const ScenarioPlan& plan) {
  workload::OpenLoopOptions o;
  o.arrival_rate = plan.arrival_rate;
  o.accounts = 1000;
  o.max_retries = kOpenLoopRetries;
  o.retry_backoff = kOpenLoopBackoff;
  o.retry_backoff_cap = kOpenLoopBackoffCap;
  o.start_at = kClientStart;
  // Arrivals stop at the head of the quiet tail so every transaction can
  // reach a terminal state before the end-of-run resolution sweep.
  o.stop_at = plan.duration - plan.required_tail();
  o.measure_from = kClientStart;
  o.measure_to = plan.duration;
  return o;
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

/// Wires the in-run sweep/fault schedule shared by both protocols.
/// `sweeps` fire as harness-level events between handler runs, so reading
/// cross-node state is safe.
void schedule_sweeps(sim::Simulation& sim, const ScenarioPlan& plan,
                     const RunOptions& opts, CheckContext& ctx,
                     const InvariantRegistry& reg, bool& tripped,
                     std::vector<Violation>& out) {
  for (TimeNs t = opts.check_interval; t < plan.duration;
       t += opts.check_interval) {
    sim.schedule_at(t, [&sim, &ctx, &reg, &tripped, &out] {
      if (tripped) return;  // first witness is enough; keep the run cheap
      ctx.now = sim.now();
      std::vector<Violation> v = reg.run(ctx);
      if (v.empty()) return;
      tripped = true;
      out.insert(out.end(), v.begin(), v.end());
    });
  }
}

/// The protocol-independent half of a plan run: adversary, client pools
/// (none on silent nodes), workload faults, then `schedule_crashes`, the
/// ledger probe 1 ms after the last fault (`probe_ledger`), in-run and
/// final invariant sweeps, and the pool summary. Scheduling order fixes
/// event ids, so it must not change.
template <typename Cluster, typename ScheduleCrashes, typename ProbeLedger>
void drive_plan(Cluster& cluster, const ScenarioPlan& plan,
                const RunOptions& opts, CheckContext& ctx, RunReport& rep,
                ScheduleCrashes schedule_crashes, ProbeLedger probe_ledger) {
  FuzzAdversary adversary(plan.n, plan.partitions, plan.delays);
  if (!plan.partitions.empty() || !plan.delays.empty()) {
    cluster.network().set_adversary(&adversary);
  }
  const std::vector<bool> silent = harness::silent_nodes(plan.n, plan.byz);
  for (NodeId i = 0; i < plan.n; ++i) {
    if (silent[i]) continue;  // dead target
    if (plan.open_loop()) {
      cluster.add_open_loop_pool(i, make_open_loop_options(plan), plan.seed);
      continue;
    }
    client::ClientPool& pool = cluster.add_client_pool(
        i, plan.clients_per_node, kClientStart, kClientStart, plan.duration);
    if (plan.resubmit_timeout > 0) {
      pool.set_resubmit_timeout(plan.resubmit_timeout);
    }
  }

  sim::Simulation& sim = cluster.simulation();
  schedule_workload_faults(sim, cluster, plan);
  schedule_crashes();
  std::size_t ledger_at_last_fault = 0;
  const TimeNs fault_end = last_fault_end(plan);
  if (fault_end > 0 && fault_end < plan.duration) {
    sim.schedule_at(fault_end + ms(1), [&probe_ledger, &ledger_at_last_fault] {
      ledger_at_last_fault = probe_ledger();
    });
  }

  ctx.plan = &plan;
  ctx.is_byz = byz_mask(plan);
  const InvariantRegistry reg = InvariantRegistry::standard();
  bool tripped = false;
  schedule_sweeps(sim, plan, opts, ctx, reg, tripped, rep.violations);

  cluster.start();
  cluster.run_for(plan.duration);

  ctx.final_phase = true;
  ctx.now = sim.now();
  ctx.ledger_at_last_fault = ledger_at_last_fault;
  std::vector<Violation> final_v = reg.run(ctx);
  rep.violations.insert(rep.violations.end(), final_v.begin(), final_v.end());
  dedup_violations(rep.violations);

  rep.min_ledger = cluster.min_ledger_length();
  rep.partitioned_messages = adversary.partitioned_messages();
  rep.delayed_messages = adversary.delayed_messages();
  for (const auto& pool : cluster.pools()) {
    rep.committed_txs += pool->committed_total();
    rep.resubmissions += pool->resubmissions();
  }
  for (const auto& pool : cluster.open_pools()) {
    const workload::OpenLoopStats& s = pool->stats();
    rep.committed_txs += s.committed_total;
    rep.resubmissions += s.resubmissions;
    rep.offered_txs += s.offered;
    rep.backpressure_rejects += s.rejected_events;
    rep.terminal_rejects += s.terminal_rejects;
  }
}

void run_lyra_plan(const ScenarioPlan& plan, const RunOptions& opts,
                   RunReport& rep) {
  harness::LyraClusterOptions co;
  co.config.n = plan.n;
  co.config.f = plan.f();
  co.config.delta = ms(160);  // 1.2x the longest one-way leg
  co.config.batch_size = plan.batch_size;
  co.config.mempool_capacity = plan.mempool_capacity;
  co.topology = net::three_continents_with_clients(plan.n);
  co.seed = plan.seed;
  harness::configure_faults(co, plan.crashes, plan.byz, plan.state_sync,
                            plan.open_loop(), /*sandwichers=*/0, {});

  harness::LyraCluster cluster(std::move(co));
  const auto schedule_crashes = [&cluster, &plan] {
    for (const CrashFault& c : plan.crashes) {
      cluster.schedule_crash_restart(c.node, c.crash_at, c.restart_at,
                                     c.wipe_disk, c.corrupt_wal);
    }
  };
  CheckContext ctx;
  ctx.lyra = &cluster;
  drive_plan(cluster, plan, opts, ctx, rep, schedule_crashes,
             [&cluster] { return cluster.max_ledger_length(); });
  rep.max_ledger = cluster.max_ledger_length();
  rep.restarts = cluster.restarts();
  rep.late_accepts = cluster.total_late_accepts();
  rep.sync_installs_refused = cluster.statesync_totals().installs_refused;
}

void run_pompe_plan(const ScenarioPlan& plan, const RunOptions& opts,
                    RunReport& rep) {
  harness::PompeClusterOptions co;
  co.config.n = plan.n;
  co.config.f = plan.f();
  co.config.delta = ms(160);
  co.config.batch_size = plan.batch_size;
  co.config.initial_leader = 0;
  co.config.mempool_capacity = plan.mempool_capacity;
  co.topology = net::three_continents_with_clients(plan.n);
  co.seed = plan.seed;

  harness::PompeCluster cluster(std::move(co));
  CheckContext ctx;
  ctx.pompe = &cluster;
  drive_plan(cluster, plan, opts, ctx, rep, [] {},
             [&cluster] { return cluster.min_ledger_length(); });
  rep.max_ledger = rep.min_ledger;
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
    run_lyra_plan(plan, opts, rep);
  } else {
    run_pompe_plan(plan, opts, rep);
  }
  return rep;
}

}  // namespace lyra::fuzz
