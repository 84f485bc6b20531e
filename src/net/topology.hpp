#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/latency_model.hpp"
#include "support/types.hpp"

namespace lyra::net {

/// AWS-style regions used by the paper's deployment and motivation figure.
enum class Region : std::uint8_t {
  kOregon,     // us-west-2
  kIreland,    // eu-west-1
  kSydney,     // ap-southeast-2
  kTokyo,      // ap-northeast-1 (Alice in Fig. 1)
  kSingapore,  // ap-southeast-1 (Mallory in Fig. 1)
  kMumbai,     // ap-south-1 (Carole in Fig. 1: triangle violation target)
};

constexpr std::size_t kRegionCount = 6;

const char* region_name(Region r);

/// Mean one-way latency between two regions, approximating public AWS
/// inter-region RTT measurements (one-way = RTT / 2). The Tokyo -> Mumbai
/// path is deliberately routed badly (as observed in practice for some
/// region pairs) so that
///   d(Tokyo, Singapore) + d(Singapore, Mumbai) < d(Tokyo, Mumbai),
/// the triangle-inequality violation that Fig. 1's front-running attack
/// exploits.
TimeNs region_latency(Region a, Region b);

/// Assignment of every simulated process to a region.
struct Topology {
  std::vector<Region> placement;  // placement[i] = region of process i
  /// Log-normal jitter of the one-way delay. Production WAN paths are
  /// stable (Mouchet et al. [26], cited in SVI-B): ~1% of the mean, i.e.
  /// +/-1.5 ms on the longest leg - comfortably inside the paper's
  /// lambda = 5 ms validation window.
  double jitter_sigma = 0.012;

  std::size_t size() const { return placement.size(); }

  /// Latency model induced by the placement.
  std::unique_ptr<MatrixLatency> make_latency_model() const;
};

/// The paper's deployment (§VI-A): processes split evenly across Oregon,
/// Ireland and Sydney, round-robin. `extra` processes (clients, attackers)
/// are appended with the given placements.
Topology three_continents(std::size_t nodes,
                          const std::vector<Region>& extra = {});

/// three_continents(nodes) plus one client slot per node, slot nodes + i
/// in node i's region: the paper's co-located client machines (§VI-A).
Topology three_continents_with_clients(std::size_t nodes);

/// Fig. 1 geometry, attack-favourable: seven consensus nodes — node 0
/// (Alice's proposer) in Tokyo, node 1 (Mallory) in Singapore, and nodes
/// 2-6, the timestamping quorum mass (Carole et al.), in Mumbai behind the
/// triangle-violating edge, so Mallory's reaction reaches the quorum before
/// Alice's original — followed by `tokyo_clients` client slots in Tokyo
/// (Alice herself).
Topology fig1_topology(std::size_t tokyo_clients);

/// All processes in one datacenter (LAN), for protocol unit tests.
Topology single_region(std::size_t nodes, Region r = Region::kOregon);

}  // namespace lyra::net
