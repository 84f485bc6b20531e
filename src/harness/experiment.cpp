#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "attacks/byzantine_lyra.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "support/assert.hpp"
#include "workload/mempool.hpp"

namespace lyra::harness {

namespace {

/// Aggregated-client layout (RunConfig::client_shard): nodes grouped into
/// same-region shards of up to `shard` targets, one pool slot per shard
/// placed in that shard's region (so client-to-node latencies match the
/// per-node layout). Silent nodes get no clients; a nonzero `max_targets`
/// (RunConfig::client_nodes) caps the client-bearing set to nodes
/// 0..max_targets-1.
struct ShardPlan {
  std::vector<std::vector<NodeId>> shards;
  net::Topology topology;
};

ShardPlan make_shard_plan(std::size_t n, std::size_t shard,
                          const std::vector<bool>& silent,
                          std::size_t max_targets) {
  ShardPlan plan;
  const net::Topology base = net::three_continents(n);
  for (std::size_t r = 0; r < net::kRegionCount; ++r) {
    std::vector<NodeId> cur;
    for (NodeId i = 0; i < n; ++i) {
      if (silent[i]) continue;
      if (max_targets > 0 && i >= max_targets) break;
      if (static_cast<std::size_t>(base.placement[i]) != r) continue;
      cur.push_back(i);
      if (cur.size() == shard) {
        plan.shards.push_back(std::move(cur));
        cur.clear();
      }
    }
    if (!cur.empty()) plan.shards.push_back(std::move(cur));
  }
  std::vector<net::Region> extras;
  extras.reserve(plan.shards.size());
  for (const std::vector<NodeId>& s : plan.shards) {
    extras.push_back(base.placement[s.front()]);
  }
  plan.topology = net::three_continents(n, extras);
  return plan;
}

template <class Cluster>
RunResult collect_client_stats(Cluster& cluster, const RunConfig& config) {
  RunResult r;
  Samples all_latencies;
  double weighted_sum = 0.0;
  std::uint64_t weighted_count = 0;
  for (const auto& pool : cluster.pools()) {
    r.committed_txs += pool->committed_in_window();
    r.resubmissions += pool->resubmissions();
    for (double v : pool->latency_ms().values()) all_latencies.add(v);
    weighted_sum +=
        pool->weighted_mean_latency_ms() *
        static_cast<double>(pool->committed_in_window());
    weighted_count += pool->committed_in_window();
  }
  const double window_s =
      to_ms(config.duration - config.measure_from) / 1000.0;
  r.throughput_tps = static_cast<double>(r.committed_txs) / window_s;
  if (weighted_count > 0) {
    r.mean_latency_ms = weighted_sum / static_cast<double>(weighted_count);
  }
  if (all_latencies.count() > 0) {
    r.p50_latency_ms = all_latencies.percentile(0.5);
    r.p99_latency_ms = all_latencies.percentile(0.99);
  }
  return r;
}

workload::OpenLoopOptions make_open_loop_options(const RunConfig& config) {
  workload::OpenLoopOptions o = config.workload.arrivals;
  o.start_at = config.client_start;
  o.measure_from = config.measure_from;
  o.measure_to = config.duration;
  return o;
}

/// Aggregates open-loop pool measurements (latency, goodput, offered load,
/// backpressure) in place of the closed-loop collect_client_stats.
template <class Cluster>
RunResult collect_open_loop_stats(Cluster& cluster, const RunConfig& config) {
  RunResult r;
  Samples all_latencies;
  std::uint64_t offered = 0;
  for (const auto& pool : cluster.open_pools()) {
    const workload::OpenLoopStats& s = pool->stats();
    r.committed_txs += s.committed_in_window;
    offered += s.offered;
    r.rejected_submits += s.rejected_events;
    r.terminal_rejects += s.terminal_rejects;
    r.resubmissions += s.resubmissions;
    for (double v : pool->latency_ms().values()) all_latencies.add(v);
  }
  const double window_s =
      to_ms(config.duration - config.measure_from) / 1000.0;
  // Arrivals run from client_start to stop_at, or to the end if unset.
  const TimeNs arrivals_end =
      config.workload.arrivals.stop_at > 0
          ? std::min(config.workload.arrivals.stop_at, config.duration)
          : config.duration;
  const double offered_s =
      to_ms(arrivals_end - config.client_start) / 1000.0;
  r.throughput_tps = static_cast<double>(r.committed_txs) / window_s;
  r.offered_txs = offered;
  r.offered_tps = static_cast<double>(offered) / offered_s;
  if (all_latencies.count() > 0) {
    r.mean_latency_ms = all_latencies.mean();
    r.p50_latency_ms = all_latencies.percentile(0.5);
    r.p99_latency_ms = all_latencies.percentile(0.99);
  }
  return r;
}

/// The protocol-independent half of a run: f from n, client placement
/// (one pool per node, or sharded), bandwidth, the timed run, client and
/// mempool sums, and economics.
/// Silent Byzantine slots get no clients and no stats, and economics reads
/// the first node that is not silent. `before_start` schedules protocol
/// faults once the pools are placed, ahead of the caller's hook; `collect`
/// adds the protocol-only results before the caller's `after_run`.
template <class ClusterT, class Options, class Economics, class BeforeStart,
          class Collect>
RunResult run_cluster(const RunConfig& config, Options opts,
                      Economics economics, BeforeStart before_start,
                      Collect collect, const RunHooks<ClusterT>& hooks) {
  const std::size_t n = config.node.n;
  const std::vector<bool> silent = silent_nodes(n, config.byz);
  opts.config.f = config.f();
  const bool sharded_clients = config.client_shard > 0 && !config.open_loop();
  ShardPlan plan;
  if (sharded_clients) {
    plan = make_shard_plan(n, config.client_shard, silent, config.client_nodes);
    opts.topology = std::move(plan.topology);
  } else {
    opts.topology = net::three_continents_with_clients(n);
  }
  opts.seed = config.seed;

  ClusterT cluster(std::move(opts));
  cluster.network().set_bandwidth(config.bandwidth_bytes_per_sec);
  if (sharded_clients) {
    for (std::vector<NodeId>& shard : plan.shards) {
      cluster.add_client_pool(std::move(shard), config.clients_per_node,
                              config.client_start, config.measure_from,
                              config.duration);
    }
  } else {
    const workload::OpenLoopOptions open_opts = make_open_loop_options(config);
    for (NodeId i = 0; i < n; ++i) {
      if (silent[i]) continue;
      if (config.open_loop()) {
        cluster.add_open_loop_pool(i, open_opts, config.seed);
      } else {
        if (config.client_nodes > 0 && i >= config.client_nodes) continue;
        cluster.add_client_pool(i, config.clients_per_node,
                                config.client_start, config.measure_from,
                                config.duration);
      }
    }
  }
  before_start(cluster);
  if (hooks.before_start) hooks.before_start(cluster);
  cluster.start();
  const auto host_start = std::chrono::steady_clock::now();
  const std::uint64_t executed = cluster.run_for(config.duration);
  const std::chrono::duration<double> host_elapsed =
      std::chrono::steady_clock::now() - host_start;

  RunResult r = config.open_loop() ? collect_open_loop_stats(cluster, config)
                                   : collect_client_stats(cluster, config);
  r.events_executed = executed;
  r.host_seconds = host_elapsed.count();
  r.sim_seconds = to_ms(config.duration) / 1000.0;
  r.prefix_consistent = cluster.ledgers_prefix_consistent();
  r.messages_dropped = cluster.network().messages_dropped() +
                       cluster.simulation().deliveries_dropped();
  if (config.open_loop()) {
    for (NodeId i = 0; i < n; ++i) {
      if (!cluster.node_alive(i)) continue;
      if (const workload::Mempool* mp = cluster.node(i).mempool()) {
        r.mempool_rejects += mp->stats().rejected_full;
        r.mempool_evictions += mp->stats().evicted;
      }
    }
    // Ledger order is identical on every correct node (prefix consistency
    // above checks that); evaluate economics on the first non-silent one.
    const NodeId first = static_cast<NodeId>(
        std::find(silent.begin(), silent.end(), false) - silent.begin());
    r.economics = economics(cluster.node(first), config.workload.economics);
  }
  collect(cluster, r);
  if (hooks.after_run) hooks.after_run(cluster);
  return r;
}

}  // namespace

RunResult run_experiment(const RunConfig& config) {
  return config.protocol == Protocol::kLyra
             ? run_experiment(config, RunHooks<LyraCluster>{})
             : run_experiment(config, RunHooks<PompeCluster>{});
}

RunResult run_experiment(const RunConfig& config,
                         const RunHooks<LyraCluster>& hooks) {
  LYRA_ASSERT(config.protocol == Protocol::kLyra, "Lyra hooks on a Pompe run");
  LyraClusterOptions opts;
  opts.config = config.node;
  const std::size_t sandwichers =
      config.open_loop() ? config.workload.sandwich_attackers : 0;
  configure_faults(opts, config.crashes, config.byz,
                   config.state_sync || config.delta_sync, config.open_loop(),
                   sandwichers, config.workload.sandwich);
  opts.statesync_config.delta_transfer = config.delta_sync;

  const auto schedule_crashes = [&config](LyraCluster& cluster) {
    for (const CrashFault& c : config.crashes) {
      cluster.schedule_crash_restart(c.node, c.crash_at, c.restart_at,
                                     c.wipe_disk, c.corrupt_wal);
    }
  };
  const auto collect = [&config](LyraCluster& cluster, RunResult& r) {
    r.late_accepts = cluster.total_late_accepts();
    r.restarts = cluster.restarts();
    for (NodeId i = 0; i < config.node.n; ++i) {
      const NodeRecoveryInfo& info = cluster.recovery_info(i);
      if (!info.happened) continue;
      r.recovered_wal_records += info.stats.replayed_records;
      if (info.stats.snapshot_loaded) ++r.recovered_snapshots;
      r.recovery_cpu_ms += to_ms(info.recovery_cpu);
      if (info.stats.torn_tail_bytes > 0) ++r.torn_tail_repairs;
      if (info.outcome == RestartOutcome::kStateSync) ++r.full_state_syncs;
      if (info.outcome == RestartOutcome::kDeltaSync) ++r.delta_state_syncs;
      if (!info.error.empty()) ++r.refused_restarts;
    }
    r.sync = cluster.statesync_totals();
    for (NodeId i = 0; i < config.node.n; ++i) {
      if (!cluster.node_alive(i)) continue;
      for (const core::CommittedBatch& cb : cluster.node(i).ledger()) {
        if (cb.revealed_at == 0) ++r.unrevealed_batches;
      }
    }

    Samples rounds;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    const std::vector<bool> silent = silent_nodes(config.node.n, config.byz);
    for (NodeId i = 0; i < config.node.n; ++i) {
      if (silent[i] || !cluster.node_alive(i)) continue;
      const auto& stats = cluster.node(i).stats();
      for (double v : stats.decide_rounds.values()) rounds.add(v);
      ok += stats.validations_ok;
      rejected += stats.validations_rejected;
      if (const auto* rep = dynamic_cast<const attacks::ReplayInitLyraNode*>(
              &cluster.node(i))) {
        r.replays_sent += rep->replays_sent();
      }
    }
    r.mean_decide_rounds = rounds.mean();
    r.max_decide_rounds = rounds.count() ? rounds.max() : 0.0;
    if (ok + rejected > 0) {
      r.validation_accept_rate =
          static_cast<double>(ok) / static_cast<double>(ok + rejected);
    }
  };
  return run_cluster<LyraCluster>(config, std::move(opts),
                                  attacks::evaluate_lyra_economics,
                                  schedule_crashes, collect, hooks);
}

RunResult run_experiment(const RunConfig& config,
                         const RunHooks<PompeCluster>& hooks) {
  LYRA_ASSERT(config.protocol == Protocol::kPompe, "Pompe hooks on a Lyra run");
  PompeClusterOptions opts;
  static_cast<core::NodeConfig&>(opts.config) = config.node;
  opts.config.initial_leader = 0;  // Oregon
  const std::size_t sandwichers =
      config.open_loop() ? config.workload.sandwich_attackers : 0;
  if (sandwichers > 0) {
    const std::size_t n = config.node.n;
    const attacks::SandwichOptions sw = config.workload.sandwich;
    opts.node_factory = [sandwichers, n, sw](
                            sim::Simulation* sim, net::Network* net,
                            NodeId id, const pompe::PompeConfig& cfg,
                            const crypto::KeyRegistry* reg)
        -> std::unique_ptr<pompe::PompeNode> {
      if (id >= n - sandwichers) {
        return std::make_unique<attacks::SandwichPompeNode>(sim, net, id,
                                                            cfg, reg, sw);
      }
      return std::make_unique<pompe::PompeNode>(sim, net, id, cfg, reg);
    };
  }
  const auto collect = [&config](PompeCluster& cluster, RunResult& r) {
    for (NodeId i = 0; i < config.node.n; ++i) {
      r.proof_verifications += cluster.node(i).stats().proof_verifications;
    }
  };
  return run_cluster<PompeCluster>(config, std::move(opts),
                                   attacks::evaluate_pompe_economics,
                                   [](PompeCluster&) {}, collect, hooks);
}

double pompe_capacity_estimate(std::size_t n, std::size_t batch_size,
                               double bandwidth_bytes_per_sec) {
  // Leader egress: each committed batch is re-broadcast inside a block to
  // n-1 replicas, costing ~ (32 B/tx * batch + proof) bytes each.
  const double batch_bytes =
      static_cast<double>(batch_size) * 32.0 + 2.0 * n / 3.0 * 72.0 + 64.0;
  const double egress_limit =
      bandwidth_bytes_per_sec / (batch_bytes * static_cast<double>(n - 1)) *
      static_cast<double>(batch_size);
  // Pipeline bound: ~8 blocks/s (one per quorum RTT) of ~16 batches.
  const double pipeline_limit = 8.0 * 16.0 * static_cast<double>(batch_size);
  return std::min(egress_limit, pipeline_limit);
}

}  // namespace lyra::harness
