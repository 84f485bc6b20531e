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
/// Two kinds of randomness with distinct roles:
///  * rng() — protocol randomness drawn inside process handlers (VSS
///    encryption, Byzantine behaviour), in event order.
///  * streams derived from seed() — engine-side draws (latency jitter,
///    adversary delays). The network seeds a throwaway Rng per message with
///    derive_stream() and hands it to the adversary, so the handler-visible
///    rng() is identical whether or not the network samples.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimeNs now() const { return now_; }

  /// Schedules `fn` after `delay`; a negative delay means now().
  std::uint64_t schedule_in(TimeNs delay, EventQueue::Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at `at`, or at now() if `at` has passed.
  std::uint64_t schedule_at(TimeNs at, EventQueue::Callback fn) {
    return queue_.schedule_at(at < now_ ? now_ : at, std::move(fn));
  }

  void cancel(std::uint64_t event_id) { queue_.cancel(event_id); }

  /// True while `event_id` has neither fired nor been cancelled.
  bool pending(std::uint64_t event_id) const {
    return queue_.pending(event_id);
  }

  /// Message-delivery fast path: one slab slot per send, no callback
  /// allocation. Each receiver (absolute time, not before now()) is
  /// resolved through `dir` at delivery time, so crashed processes drop
  /// their in-flight messages instead of dangling.
  void schedule_deliveries(ProcessDirectory* dir, NodeId from,
                           PayloadPtr payload,
                           std::span<const Receiver> receivers) {
    queue_.schedule_deliveries(dir, from, now_, std::move(payload), receivers);
  }

  /// Messages that reached a vacant (crashed) destination slot while in
  /// flight: sent while the receiver was up, lost when it went down.
  std::uint64_t deliveries_dropped() const {
    return queue_.deliveries_dropped();
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
  Trace trace_;
};

}  // namespace lyra::sim
