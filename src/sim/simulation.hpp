#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace lyra::sim {

/// Discrete-event simulation driver: a virtual clock, the event queue, the
/// root RNG, and the trace sink. One Simulation instance per experiment run;
/// all protocol components hold a pointer to it.
///
/// Two RNG streams with distinct roles:
///  * rng() — protocol randomness drawn inside process handlers (VSS
///    encryption, Byzantine behaviour), in event order.
///  * net_rng() — engine-internal randomness (adversary delays), drawn while
///    messages are scheduled. Keeping it out of rng() means the
///    handler-visible stream is identical whether or not the network
///    samples from it.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs now() const { return now_; }

  std::uint64_t schedule_in(TimeNs delay, EventQueue::Callback fn) {
    return queue_.schedule_at(now_ + delay, std::move(fn));
  }

  std::uint64_t schedule_at(TimeNs at, EventQueue::Callback fn) {
    return queue_.schedule_at(at < now_ ? now_ : at, std::move(fn));
  }

  void cancel(std::uint64_t event_id) { queue_.cancel(event_id); }

  /// Message-delivery fast path: no callback allocation per message. The
  /// destination (env.to) is resolved through `dir` at delivery time, so
  /// crashed processes drop their in-flight messages instead of dangling.
  void schedule_delivery_in(TimeNs delay, ProcessDirectory* dir,
                            Envelope env) {
    queue_.schedule_delivery(now_ + delay, dir, std::move(env));
  }

  /// Runs events until the queue drains or the clock passes `deadline`.
  /// Events scheduled at exactly `deadline` still run. Returns the number
  /// of events executed.
  std::uint64_t run_until(TimeNs deadline);

  /// Runs until the queue drains; `max_events` guards against protocol
  /// livelock in tests.
  std::uint64_t run_all(std::uint64_t max_events = 500'000'000);

  /// Protocol randomness (handler context).
  Rng& rng() { return rng_; }

  /// Engine-internal randomness (adversary schedules and other
  /// engine-side draws). Latency jitter does not draw from this shared
  /// stream — the network derives per-sender counter-based streams from
  /// seed() instead, so one sender's draw sequence does not depend on every
  /// other sender's traffic.
  Rng& net_rng() { return net_rng_; }

  /// The root seed this run was constructed with. Sharded consumers (the
  /// network's per-sender jitter streams) derive their own streams from it
  /// via derive_stream().
  std::uint64_t seed() const { return seed_; }

  Trace& trace() { return trace_; }

 private:
  EventQueue queue_;
  TimeNs now_ = 0;
  std::uint64_t seed_;
  Rng rng_;
  Rng net_rng_;
  Trace trace_;
};

}  // namespace lyra::sim
