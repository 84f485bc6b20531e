#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "attacks/byzantine_lyra.hpp"
#include "attacks/sandwich.hpp"
#include "harness/lyra_cluster.hpp"
#include "harness/pompe_cluster.hpp"
#include "workload/economics.hpp"
#include "workload/mempool.hpp"
#include "workload/open_loop.hpp"

namespace lyra::harness {

namespace {

/// Aggregated-client layout (RunConfig::client_shard): nodes grouped into
/// same-region shards of up to `shard` targets, one pool slot per shard
/// placed in that shard's region (so client-to-node latencies match the
/// per-node layout). Nodes below `skip_below` get no clients; a nonzero
/// `max_targets` (RunConfig::client_nodes) caps the client-bearing set to
/// nodes 0..max_targets-1.
struct ShardPlan {
  std::vector<std::vector<NodeId>> shards;
  net::Topology topology;
};

ShardPlan make_shard_plan(std::size_t n, std::size_t shard,
                          std::size_t skip_below, std::size_t max_targets) {
  ShardPlan plan;
  const net::Topology base = net::three_continents(n);
  for (std::size_t r = 0; r < net::kRegionCount; ++r) {
    std::vector<NodeId> cur;
    for (NodeId i = 0; i < n; ++i) {
      if (i < skip_below) continue;  // no clients on dead nodes
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
  const RunConfig::Workload& w = config.workload;
  workload::OpenLoopOptions o;
  o.arrival_rate = w.arrival_rate;
  o.burst_every_ms = w.burst_every_ms;
  o.burst_len_ms = w.burst_len_ms;
  o.burst_mult = w.burst_mult;
  o.accounts = w.accounts;
  o.zipf_s = w.zipf_s;
  o.fee_model = w.fee_model;
  o.base_fee = w.base_fee;
  o.base_value = w.base_value;
  o.value_sigma = w.value_sigma;
  o.max_retries = w.max_retries;
  o.retry_backoff = w.retry_backoff;
  o.start_at = config.client_start;
  o.measure_from = config.measure_from;
  o.measure_to = config.duration;
  return o;
}

attacks::SandwichOptions make_sandwich_options(const RunConfig& config) {
  attacks::SandwichOptions o;
  o.value_threshold = config.workload.victim_value_threshold;
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
  const double offered_s =
      to_ms(config.duration - config.client_start) / 1000.0;
  r.throughput_tps = static_cast<double>(r.committed_txs) / window_s;
  r.goodput_tps = r.throughput_tps;
  r.offered_txs = offered;
  r.offered_tps = static_cast<double>(offered) / offered_s;
  if (all_latencies.count() > 0) {
    r.mean_latency_ms = all_latencies.mean();
    r.p50_latency_ms = all_latencies.percentile(0.5);
    r.p99_latency_ms = all_latencies.percentile(0.99);
  }
  return r;
}

void fold_economics(const workload::EconomicsReport& rep, RunResult* r) {
  r->victims_targeted = rep.victims_targeted;
  r->frontrun_successes = rep.frontrun_successes;
  r->sandwich_completes = rep.sandwich_completes;
  r->attacks_committed = rep.attack_committed;
  r->extracted_value = rep.extracted_value;
  r->adversary_profit = rep.adversary_profit;
  r->victim_slippage = rep.victim_slippage;
}

/// The protocol-independent half of a run: the configuration both
/// protocols share, client placement (one pool per node, or sharded),
/// bandwidth, the timed run, client stats, verify-cache and mempool sums,
/// and economics. Nodes below `dead` are crash-faulty: they get no
/// clients and no stats, and economics reads node `dead`. `before_start`
/// schedules protocol faults once the pools are placed; `collect` adds
/// the protocol-only results.
template <class ClusterT, class Options, class Economics, class BeforeStart,
          class Collect>
RunResult run_cluster(const RunConfig& config, Options opts, std::size_t dead,
                      Economics economics, BeforeStart before_start,
                      Collect collect) {
  opts.config.n = config.n;
  opts.config.f = config.f();
  opts.config.delta = ms(160);  // 1.2x the longest one-way leg
  opts.config.batch_size = config.batch_size;
  opts.config.batch_timeout = config.batch_timeout;
  opts.config.memoize_verification = config.memoize_verify;
  if (config.workload.open_loop) {
    opts.config.mempool_capacity = config.workload.mempool_capacity;
  }
  const bool sharded_clients =
      config.client_shard > 0 && !config.workload.open_loop;
  ShardPlan plan;
  if (sharded_clients) {
    plan = make_shard_plan(config.n, config.client_shard, dead,
                           config.client_nodes);
    opts.topology = std::move(plan.topology);
  } else {
    opts.topology = net::three_continents_with_clients(config.n);
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
    for (NodeId i = static_cast<NodeId>(dead); i < config.n; ++i) {
      if (config.workload.open_loop) {
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
  cluster.start();
  const auto host_start = std::chrono::steady_clock::now();
  const std::uint64_t executed = cluster.run_for(config.duration);
  const std::chrono::duration<double> host_elapsed =
      std::chrono::steady_clock::now() - host_start;

  RunResult r = config.workload.open_loop
                    ? collect_open_loop_stats(cluster, config)
                    : collect_client_stats(cluster, config);
  r.events_executed = executed;
  r.host_seconds = host_elapsed.count();
  r.sim_seconds = to_ms(config.duration) / 1000.0;
  r.prefix_consistent = cluster.ledgers_prefix_consistent();
  r.messages_dropped = cluster.network().messages_dropped() +
                       cluster.simulation().deliveries_dropped();
  for (NodeId i = static_cast<NodeId>(dead); i < config.n; ++i) {
    if (!cluster.node_alive(i)) continue;  // crashed, never restarted
    r.verify_cache_hits += cluster.node(i).stats().verify_cache_hits;
    r.verify_cache_misses += cluster.node(i).stats().verify_cache_misses;
  }
  if (config.workload.open_loop) {
    for (NodeId i = 0; i < config.n; ++i) {
      if (!cluster.node_alive(i)) continue;
      if (const workload::Mempool* mp = cluster.node(i).mempool()) {
        r.mempool_rejects += mp->stats().rejected_full;
        r.mempool_evictions += mp->stats().evicted;
      }
    }
    // Ledger order is identical on every correct node (prefix consistency
    // above checks that); evaluate economics on the first correct one.
    workload::EconomicsParams ep;
    ep.slippage_bps = config.workload.slippage_bps;
    fold_economics(economics(cluster.node(static_cast<NodeId>(dead)), ep),
                   &r);
  }
  collect(cluster, r);
  return r;
}

RunResult run_lyra(const RunConfig& config) {
  LyraClusterOptions opts;
  opts.config.lambda = config.lambda;
  opts.config.heartbeat_period = config.heartbeat;
  opts.config.obfuscate = config.obfuscate;
  opts.config.max_outstanding_proposals = config.max_outstanding;
  // Flat host memory by default; serving reveal catch-up needs the bytes,
  // and so does the economics evaluation of an open-loop ledger.
  opts.config.retain_payloads =
      config.wants_state_sync() || config.workload.open_loop;
  opts.durable_storage = !config.crash_restarts.empty();
  opts.state_sync = config.wants_state_sync();
  opts.statesync_config.delta_transfer = config.delta_sync;
  const std::size_t sandwichers =
      config.workload.open_loop ? config.workload.sandwich_attackers : 0;
  if (config.byzantine_silent > 0 || config.replay_attackers > 0 ||
      sandwichers > 0) {
    const std::size_t silent = config.byzantine_silent;
    const std::size_t replayers = config.replay_attackers;
    const std::size_t n = config.n;
    const attacks::SandwichOptions sw = make_sandwich_options(config);
    opts.node_factory = [silent, replayers, sandwichers, n, sw](
                            sim::Simulation* sim, net::Network* net,
                            NodeId id, const core::Config& cfg,
                            const crypto::KeyRegistry* reg)
        -> std::unique_ptr<core::LyraNode> {
      if (id < silent) {
        return std::make_unique<attacks::SilentLyraNode>(sim, net, id, cfg,
                                                         reg);
      }
      if (id < silent + replayers) {
        return std::make_unique<attacks::ReplayInitLyraNode>(sim, net, id,
                                                             cfg, reg);
      }
      if (id >= n - sandwichers) {
        return std::make_unique<attacks::SandwichLyraNode>(sim, net, id,
                                                           cfg, reg, sw);
      }
      return std::make_unique<core::LyraNode>(sim, net, id, cfg, reg);
    };
  }

  const auto schedule_crashes = [&config](LyraCluster& cluster) {
    for (const RunConfig::CrashRestart& cr : config.crash_restarts) {
      cluster.schedule_crash_restart(cr.node, cr.crash_at, cr.restart_at);
      const NodeId id = cr.node;
      if (cr.wipe_disk_at > 0) {
        cluster.simulation().schedule_at(
            cr.wipe_disk_at, [&cluster, id] { cluster.wipe_disk(id); });
      }
      if (cr.corrupt_wal) {
        const TimeNs at = cr.crash_at + (cr.restart_at - cr.crash_at) / 2;
        cluster.simulation().schedule_at(
            at, [&cluster, id] { cluster.corrupt_wal(id); });
      }
    }
  };
  const auto collect = [&config](LyraCluster& cluster, RunResult& r) {
    r.late_accepts = cluster.total_late_accepts();
    r.restarts = cluster.restarts();
    for (NodeId i = 0; i < config.n; ++i) {
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
    const statesync::StateSyncStats sync = cluster.statesync_totals();
    r.sync_chunks_fetched = sync.chunks_fetched;
    r.sync_chunks_local = sync.chunks_local;
    r.sync_chunks_rejected = sync.chunks_rejected;
    r.sync_bytes_transferred = sync.bytes_transferred;
    r.sync_bytes_local = sync.bytes_local;
    r.sync_serves_shed = sync.serves_shed;
    r.sync_entries_installed = sync.entries_installed;
    r.catchup_reveals = sync.catchup_reveals;
    for (NodeId i = 0; i < config.n; ++i) {
      if (!cluster.node_alive(i)) continue;
      for (const core::CommittedBatch& cb : cluster.node(i).ledger()) {
        if (cb.revealed_at == 0) ++r.unrevealed_batches;
      }
    }

    Samples rounds;
    std::uint64_t ok = 0;
    std::uint64_t rejected = 0;
    for (NodeId i = static_cast<NodeId>(config.byzantine_silent);
         i < config.n; ++i) {
      if (!cluster.node_alive(i)) continue;  // crashed, never restarted
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
                                  config.byzantine_silent,
                                  attacks::evaluate_lyra_economics,
                                  schedule_crashes, collect);
}

RunResult run_pompe(const RunConfig& config) {
  PompeClusterOptions opts;
  opts.config.initial_leader = 0;  // Oregon
  const std::size_t sandwichers =
      config.workload.open_loop ? config.workload.sandwich_attackers : 0;
  if (sandwichers > 0) {
    const std::size_t n = config.n;
    const attacks::SandwichOptions sw = make_sandwich_options(config);
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
    for (NodeId i = 0; i < config.n; ++i) {
      r.proof_verifications += cluster.node(i).stats().proof_verifications;
    }
  };
  return run_cluster<PompeCluster>(config, std::move(opts), /*dead=*/0,
                                   attacks::evaluate_pompe_economics,
                                   [](PompeCluster&) {}, collect);
}

}  // namespace

RunResult run_experiment(const RunConfig& config) {
  return config.protocol == RunConfig::Protocol::kLyra ? run_lyra(config)
                                                       : run_pompe(config);
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

const char* protocol_name(RunConfig::Protocol p) {
  return p == RunConfig::Protocol::kLyra ? "lyra" : "pompe";
}

}  // namespace lyra::harness
