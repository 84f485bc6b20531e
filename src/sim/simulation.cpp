#include "sim/simulation.hpp"

#include <limits>

#include "support/assert.hpp"

namespace lyra::sim {

namespace {
/// Derives the engine-internal stream without consuming from the protocol
/// stream (Rng::split would perturb it): golden-pinned runs stay
/// bit-identical. The constant is the 64-bit golden-ratio increment.
constexpr std::uint64_t kNetStreamSalt = 0x9e3779b97f4a7c15ULL;
}  // namespace

Simulation::Simulation(std::uint64_t seed)
    : seed_(seed), rng_(seed), net_rng_(seed ^ kNetStreamSalt) {}

std::uint64_t Simulation::run_until(TimeNs deadline) {
  std::uint64_t executed = 0;
  while (queue_.run_next_until(deadline, now_)) ++executed;
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::uint64_t Simulation::run_all(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  while (queue_.run_next_until(std::numeric_limits<TimeNs>::max(), now_)) {
    if (++executed >= max_events) {
      LYRA_ASSERT(queue_.empty(),
                  "event budget exhausted: livelock or unbounded protocol");
    }
  }
  return executed;
}

}  // namespace lyra::sim
