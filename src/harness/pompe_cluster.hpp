#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "client/client_pool.hpp"
#include "crypto/keys.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "pompe/pompe_node.hpp"
#include "sim/simulation.hpp"
#include "workload/open_loop.hpp"

namespace lyra::harness {

using PompeNodeFactory = std::function<std::unique_ptr<pompe::PompeNode>(
    sim::Simulation*, net::Network*, NodeId, const pompe::PompeConfig&,
    const crypto::KeyRegistry*)>;

struct PompeClusterOptions {
  pompe::PompeConfig config;
  net::Topology topology;
  std::uint64_t seed = 1;
  PompeNodeFactory node_factory;
};

/// The Pompē baseline deployment, mirroring LyraCluster's shape so the
/// benchmark harness can sweep both protocols identically.
class PompeCluster {
 public:
  explicit PompeCluster(PompeClusterOptions options);

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return *network_; }
  const crypto::KeyRegistry& registry() const { return registry_; }
  pompe::PompeNode& node(NodeId id) { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }
  const pompe::PompeConfig& config() const { return options_.config; }

  client::ClientPool& add_client_pool(NodeId target, std::uint32_t width,
                                      TimeNs start_at, TimeNs measure_from,
                                      TimeNs measure_to);
  /// Aggregated form; see LyraCluster::add_client_pool(vector).
  client::ClientPool& add_client_pool(std::vector<NodeId> targets,
                                      std::uint32_t width, TimeNs start_at,
                                      TimeNs measure_from, TimeNs measure_to);
  /// Open-loop traffic source; see LyraCluster::add_open_loop_pool.
  workload::OpenLoopClientPool& add_open_loop_pool(
      NodeId target, const workload::OpenLoopOptions& options,
      std::uint64_t run_seed);
  void adopt_process(std::unique_ptr<sim::Process> process);
  NodeId next_process_id() const { return next_id_; }

  void start();
  /// Returns the number of events executed (perf-harness metric).
  std::uint64_t run_for(TimeNs duration) {
    return sim_.run_until(sim_.now() + duration);
  }

  /// SMR-Safety across Pompē ledgers: prefix-related on
  /// (block_height, assigned_ts, digest).
  bool ledgers_prefix_consistent() const;
  std::size_t min_ledger_length() const;

  const std::vector<std::unique_ptr<client::ClientPool>>& pools() const {
    return pools_;
  }
  const std::vector<std::unique_ptr<workload::OpenLoopClientPool>>&
  open_pools() const {
    return open_pools_;
  }

 private:
  PompeClusterOptions options_;
  sim::Simulation sim_;
  crypto::KeyRegistry registry_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<pompe::PompeNode>> nodes_;
  std::vector<std::unique_ptr<client::ClientPool>> pools_;
  std::vector<std::unique_ptr<workload::OpenLoopClientPool>> open_pools_;
  std::vector<std::unique_ptr<sim::Process>> extra_processes_;
  NodeId next_id_;
  bool started_ = false;
};

}  // namespace lyra::harness
