#include "sim/simulation.hpp"

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
  while (!queue_.empty()) {
    const TimeNs next = queue_.next_time();
    if (next > deadline) break;
    now_ = next;
    queue_.run_next();
    ++executed;
  }
  if (now_ < deadline) now_ = deadline;
  return executed;
}

std::uint64_t Simulation::run_all(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    LYRA_ASSERT(executed < max_events,
                "event budget exhausted: livelock or unbounded protocol");
    now_ = queue_.next_time();
    queue_.run_next();
    ++executed;
  }
  return executed;
}

}  // namespace lyra::sim
