#include "sim/ring.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace lyra::sim {
namespace {

TEST(Ring, KeepsFifoOrderAcrossWrapAndGrow) {
  Ring<int> ring;
  int pushed = 0;
  int popped = 0;
  for (int i = 0; i < 6; ++i) ring.push_back(pushed++);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ring.pop_front(), popped++);
  // Head at slot 4 of 8: the next five pushes wrap past the end.
  for (int i = 0; i < 5; ++i) ring.push_back(pushed++);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 7u);
  // Grow while wrapped: the contents must unroll in order.
  for (int i = 0; i < 4; ++i) ring.push_back(pushed++);
  EXPECT_EQ(ring.capacity(), 16u);
  EXPECT_EQ(ring.size(), 11u);
  while (!ring.empty()) EXPECT_EQ(ring.pop_front(), popped++);
  EXPECT_EQ(popped, pushed);
  // A drained ring keeps its capacity and stays in order after a wrap.
  for (int round = 0; round < 40; ++round) {
    ring.push_back(pushed++);
    ring.push_back(pushed++);
    EXPECT_EQ(ring.pop_front(), popped++);
  }
  while (!ring.empty()) EXPECT_EQ(ring.pop_front(), popped++);
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(Ring, PopReleasesTheSlot) {
  // A popped element is moved out: the slot holds no reference to it.
  Ring<std::shared_ptr<int>> ring;
  auto value = std::make_shared<int>(7);
  ring.push_back(value);
  EXPECT_EQ(value.use_count(), 2);
  const auto out = ring.pop_front();
  EXPECT_EQ(*out, 7);
  EXPECT_EQ(value.use_count(), 2);  // `value` and `out`, not the ring
}

}  // namespace
}  // namespace lyra::sim
