#include "net/topology.hpp"

#include "support/assert.hpp"

namespace lyra::net {

namespace {

/// Symmetric one-way mean latencies in milliseconds, indexed by Region.
/// Sources: public inter-region RTT tables (cloudping-style measurements),
/// halved. Tokyo<->Mumbai is set to its historically bad direct route.
constexpr double kOneWayMs[kRegionCount][kRegionCount] = {
    //              Oregon Ireland Sydney  Tokyo  Sing.  Mumbai
    /* Oregon    */ {0.25, 62.0, 70.0, 49.0, 82.0, 108.0},
    /* Ireland   */ {62.0, 0.25, 131.0, 106.0, 87.0, 61.0},
    /* Sydney    */ {70.0, 131.0, 0.25, 52.0, 46.0, 76.0},
    /* Tokyo     */ {49.0, 106.0, 52.0, 0.25, 34.0, 68.0},
    /* Singapore */ {82.0, 87.0, 46.0, 34.0, 0.25, 28.0},
    /* Mumbai    */ {108.0, 61.0, 76.0, 68.0, 28.0, 0.25},
};

}  // namespace

const char* region_name(Region r) {
  switch (r) {
    case Region::kOregon:
      return "oregon";
    case Region::kIreland:
      return "ireland";
    case Region::kSydney:
      return "sydney";
    case Region::kTokyo:
      return "tokyo";
    case Region::kSingapore:
      return "singapore";
    case Region::kMumbai:
      return "mumbai";
  }
  return "unknown";
}

TimeNs region_latency(Region a, Region b) {
  return ms(kOneWayMs[static_cast<std::size_t>(a)]
                     [static_cast<std::size_t>(b)]);
}

std::unique_ptr<MatrixLatency> Topology::make_latency_model() const {
  LYRA_ASSERT(!placement.empty(), "topology has no processes");
  std::vector<std::vector<TimeNs>> matrix(
      placement.size(), std::vector<TimeNs>(placement.size()));
  for (std::size_t i = 0; i < placement.size(); ++i) {
    for (std::size_t j = 0; j < placement.size(); ++j) {
      matrix[i][j] = region_latency(placement[i], placement[j]);
    }
  }
  return std::make_unique<MatrixLatency>(std::move(matrix), jitter_sigma);
}

Topology three_continents(std::size_t nodes,
                          const std::vector<Region>& extra) {
  static constexpr Region kSites[3] = {Region::kOregon, Region::kIreland,
                                       Region::kSydney};
  Topology t;
  t.placement.reserve(nodes + extra.size());
  for (std::size_t i = 0; i < nodes; ++i) {
    t.placement.push_back(kSites[i % 3]);
  }
  for (Region r : extra) t.placement.push_back(r);
  return t;
}

Topology three_continents_with_clients(std::size_t nodes) {
  Topology t = three_continents(nodes, std::vector<Region>(nodes));
  for (std::size_t i = 0; i < nodes; ++i) {
    t.placement[nodes + i] = t.placement[i];
  }
  return t;
}

Topology triangle_violation(std::size_t nodes) {
  // Alice (Tokyo) and Mallory (Singapore) are appended after the consensus
  // nodes; one consensus node is forced to Mumbai so Carole exists.
  Topology t = three_continents(
      nodes, {Region::kTokyo, Region::kSingapore});
  LYRA_ASSERT(nodes >= 1, "need at least one consensus node");
  t.placement[nodes - 1] = Region::kMumbai;
  return t;
}

Topology single_region(std::size_t nodes, Region r) {
  Topology t;
  t.placement.assign(nodes, r);
  t.jitter_sigma = 0.02;
  return t;
}

}  // namespace lyra::net
