#pragma once

#include <functional>
#include <memory>

#include "harness/cluster.hpp"
#include "pompe/pompe_node.hpp"

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

/// The Pompē baseline deployment: the same Cluster as Lyra, so the
/// benchmark harness sweeps both protocols identically.
class PompeCluster : public Cluster<pompe::PompeNode, PompeClusterOptions> {
 public:
  using Cluster::Cluster;

  /// SMR-Safety across Pompē ledgers: prefix-related on
  /// (assigned_ts, batch_digest).
  bool ledgers_prefix_consistent() const;
};

}  // namespace lyra::harness
