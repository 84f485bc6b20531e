#include "sim/simulation.hpp"

#include <gtest/gtest.h>

namespace lyra::sim {
namespace {

TEST(Simulation, ClockAdvancesWithEvents) {
  Simulation sim(1);
  std::vector<TimeNs> observed;
  sim.schedule_in(ms(5), [&] { observed.push_back(sim.now()); });
  sim.schedule_in(ms(2), [&] { observed.push_back(sim.now()); });
  sim.run_all();
  EXPECT_EQ(observed, (std::vector<TimeNs>{ms(2), ms(5)}));
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim(1);
  int ran = 0;
  sim.schedule_in(ms(1), [&] { ++ran; });
  sim.schedule_in(ms(10), [&] { ++ran; });
  sim.run_until(ms(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), ms(5));
  sim.run_until(ms(20));
  EXPECT_EQ(ran, 2);
}

TEST(Simulation, RunUntilIncludesEventsAtDeadline) {
  Simulation sim(1);
  bool ran = false;
  sim.schedule_in(ms(5), [&] { ran = true; });
  sim.run_until(ms(5));
  EXPECT_TRUE(ran);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim(1);
  sim.schedule_in(ms(10), [&] {
    // Scheduling in the past must not rewind the clock.
    sim.schedule_at(ms(1), [&] { EXPECT_GE(sim.now(), ms(10)); });
  });
  sim.run_all();
}

TEST(Simulation, CancelledEventDoesNotRun) {
  Simulation sim(1);
  bool ran = false;
  const auto id = sim.schedule_in(ms(1), [&] { ran = true; });
  sim.cancel(id);
  sim.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulation, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 10; ++i) draws.push_back(sim.rng().next_u64());
    return draws;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Simulation, TraceRecordsWhenEnabled) {
  Simulation sim(1);
  sim.trace().enable(true);
  sim.schedule_in(ms(1), [&] { sim.trace().record(sim.now(), 0, "cat", "x"); });
  sim.run_all();
  ASSERT_EQ(sim.trace().events().size(), 1u);
  EXPECT_EQ(sim.trace().events()[0].at, ms(1));
  EXPECT_EQ(sim.trace().by_category("cat").size(), 1u);
  EXPECT_TRUE(sim.trace().by_category("other").empty());
}

TEST(Simulation, TraceIgnoredWhenDisabled) {
  Simulation sim(1);
  sim.trace().record(0, 0, "cat", "x");
  EXPECT_TRUE(sim.trace().events().empty());
}

}  // namespace
}  // namespace lyra::sim
