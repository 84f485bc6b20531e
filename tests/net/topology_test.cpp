#include "net/topology.hpp"

#include <gtest/gtest.h>

namespace lyra::net {
namespace {

TEST(Topology, ThreeContinentsRoundRobin) {
  const Topology t = three_continents(7);
  ASSERT_EQ(t.size(), 7u);
  EXPECT_EQ(t.placement[0], Region::kOregon);
  EXPECT_EQ(t.placement[1], Region::kIreland);
  EXPECT_EQ(t.placement[2], Region::kSydney);
  EXPECT_EQ(t.placement[3], Region::kOregon);
  EXPECT_EQ(t.placement[6], Region::kOregon);
}

TEST(Topology, ExtraProcessesAppended) {
  const Topology t =
      three_continents(3, {Region::kTokyo, Region::kSingapore});
  ASSERT_EQ(t.size(), 5u);
  EXPECT_EQ(t.placement[3], Region::kTokyo);
  EXPECT_EQ(t.placement[4], Region::kSingapore);
}

TEST(Topology, ClientSlotsShareTheirNodesRegion) {
  const Topology t = three_continents_with_clients(5);
  ASSERT_EQ(t.size(), 10u);
  const Topology nodes = three_continents(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(t.placement[i], nodes.placement[i]);
    EXPECT_EQ(t.placement[5 + i], t.placement[i]);
  }
  EXPECT_DOUBLE_EQ(t.jitter_sigma, nodes.jitter_sigma);
}

TEST(Topology, RegionLatencyIsSymmetric) {
  for (std::size_t a = 0; a < kRegionCount; ++a) {
    for (std::size_t b = 0; b < kRegionCount; ++b) {
      EXPECT_EQ(region_latency(static_cast<Region>(a), static_cast<Region>(b)),
                region_latency(static_cast<Region>(b), static_cast<Region>(a)));
    }
  }
}

TEST(Topology, IntraRegionIsFast) {
  for (std::size_t a = 0; a < kRegionCount; ++a) {
    const auto r = static_cast<Region>(a);
    EXPECT_LT(region_latency(r, r), ms(1));
  }
}

TEST(Topology, TriangleInequalityViolationExists) {
  // The Fig. 1 attack path: Tokyo -> Singapore -> Mumbai is faster than
  // Tokyo -> Mumbai directly.
  const TimeNs direct = region_latency(Region::kTokyo, Region::kMumbai);
  const TimeNs via_mallory =
      region_latency(Region::kTokyo, Region::kSingapore) +
      region_latency(Region::kSingapore, Region::kMumbai);
  EXPECT_LT(via_mallory, direct);
}

TEST(Topology, TriangleViolationPlacesActors) {
  const Topology t = fig1_topology(2);
  ASSERT_EQ(t.size(), 9u);
  EXPECT_EQ(t.placement[0], Region::kTokyo);      // Alice's proposer
  EXPECT_EQ(t.placement[1], Region::kSingapore);  // Mallory
  for (std::size_t i = 2; i <= 6; ++i) {
    EXPECT_EQ(t.placement[i], Region::kMumbai);   // Carole et al.
  }
  EXPECT_EQ(t.placement[7], Region::kTokyo);      // client slots (Alice)
  EXPECT_EQ(t.placement[8], Region::kTokyo);
  EXPECT_EQ(fig1_topology(0).size(), 7u);
}

TEST(Topology, LatencyModelMatchesPlacement) {
  const Topology t = three_continents(4);
  const auto model = t.make_latency_model();
  EXPECT_EQ(model->base(0, 1),
            region_latency(Region::kOregon, Region::kIreland));
  EXPECT_EQ(model->base(0, 3), region_latency(Region::kOregon, Region::kOregon));
}

TEST(Topology, SingleRegionIsUniformlyLocal) {
  const Topology t = single_region(5);
  const auto model = t.make_latency_model();
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      EXPECT_LT(model->base(i, j), ms(1));
    }
  }
}

TEST(Topology, RegionNamesAreStable) {
  EXPECT_STREQ(region_name(Region::kOregon), "oregon");
  EXPECT_STREQ(region_name(Region::kMumbai), "mumbai");
}

}  // namespace
}  // namespace lyra::net
